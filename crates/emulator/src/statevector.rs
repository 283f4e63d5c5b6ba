//! Exact state-vector emulation of analog programs (EMU-SV stand-in).
//!
//! Integrates the time-dependent Schrödinger equation `dψ/dt = −i H(t) ψ`
//! with a classical RK4 integrator and a matrix-free `H·ψ` kernel. The hot
//! path is allocation-free: [`apply_h_into`] writes into a caller-provided
//! buffer, split over disjoint mutable output chunks by [`crate::par`] (which
//! also decides when the chunks fork), so amplitudes are bit-identical for
//! any worker count, and [`SvWorkspace`] keeps the RK4 scratch vectors alive
//! across every step of a sequence.
//!
//! The hot passes work on four consecutive basis states per iteration (one
//! *bit-pair block* — bits 0 and 1 resolved by in-register shuffles, higher
//! bits by contiguous block loads). Each pass exists three times: a portable
//! kernel on [`simd::f64x4`] lanes, and hand-written AVX2 and AVX-512F
//! kernels, the widest one the CPU supports selected at runtime on x86-64.
//! Every lane operation is the exact IEEE-754 scalar operation in the same
//! order, so all three are bit-identical to the scalar reference kernels
//! ([`apply_h_into_serial`] and the test module's unfused RK4 step) —
//! asserted by the parity tests below.

use crate::hamiltonian::{DiscretizedDrive, RydbergHamiltonian};
use crate::par::{for_each_chunk, AMP_CHUNK, AMP_FORK_AT};
use hpcqc_program::Sequence;
use num_complex::Complex64;
use simd::f64x4;

/// Hard cap of the dense method: `2^26` amplitudes ≈ 1 GiB of state.
pub const SV_MAX_QUBITS: usize = 26;

const ZERO: Complex64 = Complex64::new(0.0, 0.0);

/// A normalized quantum state over `n` qubits.
#[derive(Debug, Clone)]
pub struct StateVector {
    /// Number of qubits.
    pub n: usize,
    /// `2^n` amplitudes, basis index bit `i` = atom `i` in Rydberg state.
    pub amps: Vec<Complex64>,
}

impl StateVector {
    /// The all-ground state `|00…0⟩`.
    pub fn ground(n: usize) -> Self {
        assert!(
            n <= SV_MAX_QUBITS,
            "state-vector limited to {SV_MAX_QUBITS} qubits, got {n}"
        );
        let mut amps = vec![Complex64::new(0.0, 0.0); 1 << n];
        amps[0] = Complex64::new(1.0, 0.0);
        StateVector { n, amps }
    }

    /// ⟨ψ|ψ⟩ — should stay 1 under unitary evolution.
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Renormalize (corrects integrator drift; a no-op within tolerance).
    pub fn renormalize(&mut self) {
        let n = self.norm_sqr().sqrt();
        if n > 0.0 {
            let inv = 1.0 / n;
            for a in &mut self.amps {
                *a *= inv;
            }
        }
    }

    /// Probability of each basis state.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Probability that atom `i` is in the Rydberg state.
    pub fn rydberg_population(&self, i: usize) -> f64 {
        self.amps
            .iter()
            .enumerate()
            .filter(|(b, _)| (b >> i) & 1 == 1)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// Two-point Rydberg correlator ⟨n_i n_j⟩.
    pub fn rydberg_correlation(&self, i: usize, j: usize) -> f64 {
        self.amps
            .iter()
            .enumerate()
            .filter(|(b, _)| (b >> i) & 1 == 1 && (b >> j) & 1 == 1)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }
}

/// One contiguous slice of the `H·ψ` kernel: fills `out` with
/// `(H ψ)[base..base + out.len()]`.
///
/// The off-diagonal sum is split by source-bit value so each basis state
/// costs `n` complex additions plus two complex multiplies, instead of `n`
/// complex multiplies.
#[inline]
fn apply_h_chunk(
    h: &RydbergHamiltonian,
    psi: &[Complex64],
    omega: f64,
    delta: f64,
    phase: f64,
    base: usize,
    out: &mut [Complex64],
) {
    let half = omega / 2.0;
    let up = Complex64::from_polar(half, -phase); // ⟨b|H|b with bit i cleared⟩
    let down = Complex64::from_polar(half, phase);
    let n = h.n;
    for (k, slot) in out.iter_mut().enumerate() {
        let b = base + k;
        let diag = h.interaction_diag[b] - delta * h.occupation[b] as f64;
        let p = psi[b];
        let mut acc = Complex64::new(diag * p.re, diag * p.im);
        if omega != 0.0 {
            // s[1]: neighbours reached by clearing a set bit (creation side),
            // s[0]: neighbours reached by setting a clear bit.
            let mut s = [ZERO; 2];
            for i in 0..n {
                s[(b >> i) & 1] += psi[b ^ (1 << i)];
            }
            acc += up * s[1] + down * s[0];
        }
        *slot = acc;
    }
}

/// Reinterpret interleaved complex amplitudes as raw `f64` lanes
/// (`[re0, im0, re1, im1, …]`).
#[inline(always)]
fn complex_as_f64(psi: &[Complex64]) -> &[f64] {
    // SAFETY: the shimmed `Complex<f64>` is `#[repr(C)] { re, im }`, so a
    // slice of `len` complex numbers is layout-identical to `2·len` f64s.
    unsafe { std::slice::from_raw_parts(psi.as_ptr() as *const f64, psi.len() * 2) }
}

/// Mutable counterpart of [`complex_as_f64`].
#[inline(always)]
fn complex_as_f64_mut(out: &mut [Complex64]) -> &mut [f64] {
    // SAFETY: as in `complex_as_f64`; the borrow is exclusive.
    unsafe { std::slice::from_raw_parts_mut(out.as_mut_ptr() as *mut f64, out.len() * 2) }
}

/// Multiplication by a complex constant on interleaved `[re, im, re, im]`
/// lanes: `v·re_v + swap_within_pairs(v)·im_v` with the imaginary part
/// sign-folded per lane. Each lane result is the exact scalar complex
/// product (IEEE multiplication commutes bitwise and `a + (−b) ≡ a − b`).
#[derive(Clone, Copy)]
struct CMul {
    re: f64x4,
    im: f64x4,
}

impl CMul {
    #[inline(always)]
    fn new(c: Complex64) -> Self {
        CMul {
            re: f64x4::splat(c.re),
            im: f64x4::from_array([-c.im, c.im, -c.im, c.im]),
        }
    }

    #[inline(always)]
    fn apply(self, v: f64x4) -> f64x4 {
        v * self.re + v.swap_within_pairs() * self.im
    }
}

/// SIMD instantiation of [`apply_h_chunk`]: identical arithmetic on blocks
/// of four consecutive basis states (one *bit-pair block*). Bits 0 and 1 of
/// the basis index are resolved by in-register shuffles; every higher bit
/// addresses a contiguous neighbour block, so the gather of the scalar loop
/// becomes two aligned vector loads per bit. The per-lane accumulation
/// order is the scalar loop's order (ascending bit index), so the output
/// is bit-identical. Loads and stores are unchecked — bounds checks in the
/// neighbour loop would otherwise outnumber the arithmetic.
///
/// # Safety
/// Requires `psi.len() == h.dim() == 2^h.n` with `h.n ≥ 2`, `base % 4 == 0`,
/// `out.len() % 4 == 0`, and `base + out.len() ≤ psi.len()` (then every
/// neighbour index `b ^ (1 << i)`, `i < h.n`, stays in bounds).
#[inline(always)]
unsafe fn apply_h_chunk_lanes(
    h: &RydbergHamiltonian,
    psi: &[Complex64],
    omega: f64,
    delta: f64,
    phase: f64,
    base: usize,
    out: &mut [Complex64],
) {
    debug_assert!(h.n >= 2);
    debug_assert_eq!(psi.len(), h.dim());
    debug_assert_eq!(base % 4, 0);
    debug_assert_eq!(out.len() % 4, 0);
    debug_assert!(base + out.len() <= psi.len());
    let half = omega / 2.0;
    let up = CMul::new(Complex64::from_polar(half, -phase));
    let down = CMul::new(Complex64::from_polar(half, phase));
    let n = h.n;
    let drive = omega != 0.0;
    let psip = complex_as_f64(psi).as_ptr();
    let outp = complex_as_f64_mut(out).as_mut_ptr();
    let diagp = h.interaction_diag.as_ptr();
    let occp = h.occupation.as_ptr();
    let nblocks = out.len() / 4;
    for blk in 0..nblocks {
        let b0 = base + 4 * blk;
        let p_lo = f64x4::from_ptr(psip.add(2 * b0));
        let p_hi = f64x4::from_ptr(psip.add(2 * b0 + 4));
        let diag = |k: usize| diagp.add(b0 + k).read() - delta * occp.add(b0 + k).read() as f64;
        let (d0, d1, d2, d3) = (diag(0), diag(1), diag(2), diag(3));
        let mut acc_lo = f64x4::from_array([d0, d0, d1, d1]) * p_lo;
        let mut acc_hi = f64x4::from_array([d2, d2, d3, d3]) * p_hi;
        if drive {
            let mut s0_lo = f64x4::splat(0.0);
            let mut s1_lo = f64x4::splat(0.0);
            let mut s0_hi = f64x4::splat(0.0);
            let mut s1_hi = f64x4::splat(0.0);
            // Bit 0: the neighbour of each state is its partner complex in
            // the same vector. Even states (low lanes) accumulate it into
            // s0, odd states (high lanes) into s1; the blend-after-add via
            // merge_halves keeps the untouched lanes' exact bit patterns.
            let sw_lo = p_lo.rotate_pairs();
            let sw_hi = p_hi.rotate_pairs();
            s0_lo = f64x4::merge_halves(s0_lo + sw_lo, s0_lo);
            s1_lo = f64x4::merge_halves(s1_lo, s1_lo + sw_lo);
            s0_hi = f64x4::merge_halves(s0_hi + sw_hi, s0_hi);
            s1_hi = f64x4::merge_halves(s1_hi, s1_hi + sw_hi);
            // Bit 1: the lo pair's neighbours are the hi pair and vice
            // versa — full-width adds, classes are uniform per vector.
            s0_lo = s0_lo + p_hi;
            s1_hi = s1_hi + p_lo;
            // Bits ≥ 2: the XOR-neighbour of an aligned 4-block is the
            // contiguous 4-block at `b0 ^ (1 << i)`, with one source-bit
            // class for the whole block.
            for i in 2..n {
                let nb = psip.add(2 * (b0 ^ (1 << i)));
                let n_lo = f64x4::from_ptr(nb);
                let n_hi = f64x4::from_ptr(nb.add(4));
                if (b0 >> i) & 1 == 0 {
                    s0_lo = s0_lo + n_lo;
                    s0_hi = s0_hi + n_hi;
                } else {
                    s1_lo = s1_lo + n_lo;
                    s1_hi = s1_hi + n_hi;
                }
            }
            acc_lo = acc_lo + (up.apply(s1_lo) + down.apply(s0_lo));
            acc_hi = acc_hi + (up.apply(s1_hi) + down.apply(s0_hi));
        }
        acc_lo.write_ptr(outp.add(8 * blk));
        acc_hi.write_ptr(outp.add(8 * blk + 4));
    }
}

/// Hand-written AVX2 instantiation of [`apply_h_chunk_lanes`].
///
/// The portable lane kernel leaves LLVM free to re-pack the `[f64; 4]`
/// semantics, which in practice shreds the neighbour loop into half-width
/// shuffles; the intrinsics pin the codegen to full-width `vaddpd`/
/// `vmulpd`. Every intrinsic is the exact IEEE-754 lane operation of the
/// scalar reference in the same order — `vblendvpd` keeps the untouched
/// accumulator's bit pattern (branch-free class select), and no FMA is
/// emitted — so the output stays bit-identical.
///
/// # Safety
/// Same contract as [`apply_h_chunk_lanes`], plus AVX2 must be available.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments, clippy::missing_transmute_annotations)]
unsafe fn apply_h_chunk_avx2(
    h: &RydbergHamiltonian,
    psi: &[Complex64],
    omega: f64,
    delta: f64,
    phase: f64,
    base: usize,
    out: &mut [Complex64],
) {
    use std::arch::x86_64::*;
    debug_assert!(h.n >= 2);
    debug_assert_eq!(psi.len(), h.dim());
    debug_assert!(
        base.is_multiple_of(4) && out.len().is_multiple_of(4) && base + out.len() <= psi.len()
    );
    let half = omega / 2.0;
    let up = Complex64::from_polar(half, -phase);
    let down = Complex64::from_polar(half, phase);
    let n = h.n;
    let drive = omega != 0.0;
    let psip = complex_as_f64(psi).as_ptr();
    let outp = complex_as_f64_mut(out).as_mut_ptr();
    let diagp = h.interaction_diag.as_ptr();
    let occp = h.occupation.as_ptr();
    let delta_v = _mm256_set1_pd(delta);
    let up_re = _mm256_set1_pd(up.re);
    let up_im = _mm256_setr_pd(-up.im, up.im, -up.im, up.im);
    let down_re = _mm256_set1_pd(down.re);
    let down_im = _mm256_setr_pd(-down.im, down.im, -down.im, down.im);
    let nblocks = out.len() / 4;
    for blk in 0..nblocks {
        let b0 = base + 4 * blk;
        let p_lo = _mm256_loadu_pd(psip.add(2 * b0));
        let p_hi = _mm256_loadu_pd(psip.add(2 * b0 + 4));
        // d[k] = interaction_diag[b0+k] − δ·(occupation[b0+k] as f64);
        // the i32→f64 convert is exact (occupation ≤ n ≤ 26).
        let occ4 = _mm256_cvtepi32_pd(_mm_loadu_si128(occp.add(b0) as *const __m128i));
        let dvec = _mm256_sub_pd(_mm256_loadu_pd(diagp.add(b0)), _mm256_mul_pd(delta_v, occ4));
        let d_lo = _mm256_permute4x64_pd(dvec, 0x50); // [d0,d0,d1,d1]
        let d_hi = _mm256_permute4x64_pd(dvec, 0xFA); // [d2,d2,d3,d3]
        let mut acc_lo = _mm256_mul_pd(d_lo, p_lo);
        let mut acc_hi = _mm256_mul_pd(d_hi, p_hi);
        if drive {
            let zero = _mm256_setzero_pd();
            let mut s0_lo = zero;
            let mut s1_lo = zero;
            let mut s0_hi = zero;
            let mut s1_hi = zero;
            // Bit 0: partner complex within each vector; constant blends
            // route even states to s0 and odd states to s1.
            let sw_lo = _mm256_permute2f128_pd(p_lo, p_lo, 0x01);
            let sw_hi = _mm256_permute2f128_pd(p_hi, p_hi, 0x01);
            s0_lo = _mm256_blend_pd(_mm256_add_pd(s0_lo, sw_lo), s0_lo, 0b1100);
            s1_lo = _mm256_blend_pd(s1_lo, _mm256_add_pd(s1_lo, sw_lo), 0b1100);
            s0_hi = _mm256_blend_pd(_mm256_add_pd(s0_hi, sw_hi), s0_hi, 0b1100);
            s1_hi = _mm256_blend_pd(s1_hi, _mm256_add_pd(s1_hi, sw_hi), 0b1100);
            // Bit 1: cross lo/hi adds, uniform class per vector.
            s0_lo = _mm256_add_pd(s0_lo, p_hi);
            s1_hi = _mm256_add_pd(s1_hi, p_lo);
            // Bits ≥ 2: contiguous neighbour blocks; the class select is a
            // branch-free accumulator blend (the class bit pattern defeats
            // the branch predictor), keeping the idle accumulator's exact
            // bits.
            for i in 2..n {
                let nbp = psip.add(2 * (b0 ^ (1 << i)));
                let n_lo = _mm256_loadu_pd(nbp);
                let n_hi = _mm256_loadu_pd(nbp.add(4));
                let bit = ((b0 >> i) & 1) as i64;
                let m = _mm256_castsi256_pd(_mm256_set1_epi64x(bit.wrapping_neg()));
                s0_lo = _mm256_blendv_pd(_mm256_add_pd(s0_lo, n_lo), s0_lo, m);
                s1_lo = _mm256_blendv_pd(s1_lo, _mm256_add_pd(s1_lo, n_lo), m);
                s0_hi = _mm256_blendv_pd(_mm256_add_pd(s0_hi, n_hi), s0_hi, m);
                s1_hi = _mm256_blendv_pd(s1_hi, _mm256_add_pd(s1_hi, n_hi), m);
            }
            // acc += up·s1 + down·s0, complex multiply on interleaved lanes
            // (v·re + swap_within_pairs(v)·±im), exactly as CMul::apply.
            let t_lo = _mm256_add_pd(
                _mm256_add_pd(
                    _mm256_mul_pd(s1_lo, up_re),
                    _mm256_mul_pd(_mm256_permute_pd(s1_lo, 0x5), up_im),
                ),
                _mm256_add_pd(
                    _mm256_mul_pd(s0_lo, down_re),
                    _mm256_mul_pd(_mm256_permute_pd(s0_lo, 0x5), down_im),
                ),
            );
            let t_hi = _mm256_add_pd(
                _mm256_add_pd(
                    _mm256_mul_pd(s1_hi, up_re),
                    _mm256_mul_pd(_mm256_permute_pd(s1_hi, 0x5), up_im),
                ),
                _mm256_add_pd(
                    _mm256_mul_pd(s0_hi, down_re),
                    _mm256_mul_pd(_mm256_permute_pd(s0_hi, 0x5), down_im),
                ),
            );
            acc_lo = _mm256_add_pd(acc_lo, t_lo);
            acc_hi = _mm256_add_pd(acc_hi, t_hi);
        }
        _mm256_storeu_pd(outp.add(8 * blk), acc_lo);
        _mm256_storeu_pd(outp.add(8 * blk + 4), acc_hi);
    }
}

/// Hand-written AVX-512F instantiation of [`apply_h_chunk_lanes`].
///
/// One 512-bit register holds a whole bit-pair block (four interleaved
/// complex amplitudes), halving the register count of the AVX2 kernel, and
/// the per-class accumulation uses native masked adds
/// (`_mm512_mask_add_pd`): lanes outside the mask pass the accumulator's
/// exact bit pattern through, which is precisely the blend-after-add the
/// bit-identity argument needs — in a single instruction. No FMA is
/// emitted, every lane op is the scalar IEEE-754 op in the scalar order.
///
/// # Safety
/// Same contract as [`apply_h_chunk_lanes`], plus AVX-512F availability.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn apply_h_chunk_avx512(
    h: &RydbergHamiltonian,
    psi: &[Complex64],
    omega: f64,
    delta: f64,
    phase: f64,
    base: usize,
    out: &mut [Complex64],
) {
    use std::arch::x86_64::*;
    debug_assert!(h.n >= 2);
    debug_assert_eq!(psi.len(), h.dim());
    debug_assert!(
        base.is_multiple_of(4) && out.len().is_multiple_of(4) && base + out.len() <= psi.len()
    );
    let half = omega / 2.0;
    let up = Complex64::from_polar(half, -phase);
    let down = Complex64::from_polar(half, phase);
    let n = h.n;
    let drive = omega != 0.0;
    let psip = complex_as_f64(psi).as_ptr();
    let outp = complex_as_f64_mut(out).as_mut_ptr();
    let diagp = h.interaction_diag.as_ptr();
    let occp = h.occupation.as_ptr();
    let delta_v = _mm256_set1_pd(delta);
    // Duplicates [d0,d1,d2,d3,·,·,·,·] into [d0,d0,d1,d1,d2,d2,d3,d3].
    let dup_idx = _mm512_setr_epi64(0, 0, 1, 1, 2, 2, 3, 3);
    let up_re = _mm512_set1_pd(up.re);
    #[rustfmt::skip]
    let up_im = _mm512_setr_pd(-up.im, up.im, -up.im, up.im, -up.im, up.im, -up.im, up.im);
    let down_re = _mm512_set1_pd(down.re);
    #[rustfmt::skip]
    let down_im = _mm512_setr_pd(
        -down.im, down.im, -down.im, down.im, -down.im, down.im, -down.im, down.im,
    );
    let nblocks = out.len() / 4;
    for blk in 0..nblocks {
        let b0 = base + 4 * blk;
        // 128-bit lane k of `p` = complex amplitude of state b0+k.
        let p = _mm512_loadu_pd(psip.add(2 * b0));
        let occ4 = _mm256_cvtepi32_pd(_mm_loadu_si128(occp.add(b0) as *const __m128i));
        let dvec = _mm256_sub_pd(_mm256_loadu_pd(diagp.add(b0)), _mm256_mul_pd(delta_v, occ4));
        let d = _mm512_permutexvar_pd(dup_idx, _mm512_castpd256_pd512(dvec));
        let mut acc = _mm512_mul_pd(d, p);
        if drive {
            let zero = _mm512_setzero_pd();
            let mut s0 = zero;
            let mut s1 = zero;
            // Bit 0: partner complex is the adjacent 128-bit lane within
            // each 256-bit half; even states (lanes 0,1,4,5) class to s0,
            // odd states (lanes 2,3,6,7) to s1.
            let sw = _mm512_shuffle_f64x2(p, p, 0xB1); // lanes [1,0,3,2]
            s0 = _mm512_mask_add_pd(s0, 0x33, s0, sw);
            s1 = _mm512_mask_add_pd(s1, 0xCC, s1, sw);
            // Bit 1: partner is the other 256-bit half; states b0,b0+1
            // (low half) class to s0, states b0+2,b0+3 to s1.
            let sw2 = _mm512_shuffle_f64x2(p, p, 0x4E); // lanes [2,3,0,1]
            s0 = _mm512_mask_add_pd(s0, 0x0F, s0, sw2);
            s1 = _mm512_mask_add_pd(s1, 0xF0, s1, sw2);
            // Bits ≥ 2: contiguous neighbour blocks, one class per block;
            // the all-or-nothing mask keeps the idle accumulator untouched
            // (bit-exact) with no blend instruction at all.
            for i in 2..n {
                let nb = _mm512_loadu_pd(psip.add(2 * (b0 ^ (1 << i))));
                let m1: __mmask8 = 0u8.wrapping_sub(((b0 >> i) & 1) as u8);
                s0 = _mm512_mask_add_pd(s0, !m1, s0, nb);
                s1 = _mm512_mask_add_pd(s1, m1, s1, nb);
            }
            // acc += up·s1 + down·s0 on interleaved lanes, as CMul::apply.
            let t = _mm512_add_pd(
                _mm512_add_pd(
                    _mm512_mul_pd(s1, up_re),
                    _mm512_mul_pd(_mm512_permute_pd(s1, 0x55), up_im),
                ),
                _mm512_add_pd(
                    _mm512_mul_pd(s0, down_re),
                    _mm512_mul_pd(_mm512_permute_pd(s0, 0x55), down_im),
                ),
            );
            acc = _mm512_add_pd(acc, t);
        }
        _mm512_storeu_pd(outp.add(8 * blk), acc);
    }
}

/// Per-chunk kernel selection: the SIMD lane kernel, AVX-512F- or
/// AVX2-compiled when the CPU supports it. Registers of fewer than two
/// atoms fall back to the scalar loop (no bit-pair block exists).
fn apply_h_chunk_dispatch(
    h: &RydbergHamiltonian,
    psi: &[Complex64],
    omega: f64,
    delta: f64,
    phase: f64,
    base: usize,
    out: &mut [Complex64],
) {
    if h.n < 2 {
        apply_h_chunk(h, psi, omega, delta, phase, base, out);
        return;
    }
    debug_assert_eq!(psi.len(), h.dim());
    debug_assert!(
        base.is_multiple_of(4) && out.len().is_multiple_of(4) && base + out.len() <= psi.len()
    );
    #[cfg(target_arch = "x86_64")]
    {
        if simd::avx512_available() {
            // SAFETY: AVX-512F support was just verified at runtime; the
            // lane-kernel contract holds — callers pass 4-aligned chunks of
            // a `2^n ≥ 4` dimensional state whose length `apply_h_into`
            // asserted.
            unsafe { apply_h_chunk_avx512(h, psi, omega, delta, phase, base, out) };
            return;
        }
        if simd::avx2_available() {
            // SAFETY: AVX2 support was just verified at runtime; lane-kernel
            // contract as above.
            unsafe { apply_h_chunk_avx2(h, psi, omega, delta, phase, base, out) };
            return;
        }
    }
    // SAFETY: lane-kernel contract as above.
    unsafe { apply_h_chunk_lanes(h, psi, omega, delta, phase, base, out) };
}

/// Matrix-free `H(ω,δ,φ)·ψ` into a caller-provided buffer.
///
/// Off-diagonal convention: the drive term is
/// `Ω/2 Σ_i (e^{iφ}|g⟩⟨r|_i + e^{−iφ}|r⟩⟨g|_i)`, so the matrix element that
/// *creates* an excitation on atom `i` (g→r, bit 0→1) carries `e^{−iφ}`.
///
/// Large dimensions are split over disjoint mutable output chunks; every
/// output element is computed independently, so the result is bit-identical
/// to [`apply_h_into_serial`] for any worker count.
pub fn apply_h_into(
    h: &RydbergHamiltonian,
    psi: &[Complex64],
    omega: f64,
    delta: f64,
    phase: f64,
    out: &mut [Complex64],
) {
    let dim = psi.len();
    assert_eq!(
        dim,
        h.dim(),
        "state dimension must match the Hamiltonian dimension"
    );
    assert_eq!(
        out.len(),
        dim,
        "output buffer must match the state dimension"
    );
    for_each_chunk(out, AMP_CHUNK, AMP_FORK_AT, |base, chunk| {
        apply_h_chunk_dispatch(h, psi, omega, delta, phase, base, chunk);
    });
}

/// Forced-sequential, forced-scalar reference for [`apply_h_into`] — used
/// by equivalence tests and available for debugging parallel-split or SIMD
/// regressions.
pub fn apply_h_into_serial(
    h: &RydbergHamiltonian,
    psi: &[Complex64],
    omega: f64,
    delta: f64,
    phase: f64,
    out: &mut [Complex64],
) {
    assert_eq!(
        psi.len(),
        h.dim(),
        "state dimension must match the Hamiltonian dimension"
    );
    assert_eq!(out.len(), psi.len());
    apply_h_chunk(h, psi, omega, delta, phase, 0, out);
}

/// Reusable scratch buffers for the RK4 integrator: the four stage
/// derivatives plus the stage-input vector. Allocated once per state
/// dimension and reused across every step of [`evolve_sequence_ws`].
#[derive(Debug, Clone, Default)]
pub struct SvWorkspace {
    k1: Vec<Complex64>,
    k2: Vec<Complex64>,
    k3: Vec<Complex64>,
    k4: Vec<Complex64>,
    tmp: Vec<Complex64>,
    /// Second stage-input buffer: the fused RK4 passes alternate their
    /// stage output between `tmp` and `tmp2` so no pass writes the buffer
    /// its own `H·ψ` gather is still reading.
    tmp2: Vec<Complex64>,
}

impl SvWorkspace {
    /// Empty workspace; buffers grow on first use and then persist.
    pub fn new() -> Self {
        SvWorkspace::default()
    }

    fn ensure(&mut self, dim: usize) {
        for buf in [
            &mut self.k1,
            &mut self.k2,
            &mut self.k3,
            &mut self.k4,
            &mut self.tmp,
            &mut self.tmp2,
        ] {
            if buf.len() != dim {
                buf.clear();
                buf.resize(dim, ZERO);
            }
        }
    }
}

/// SIMD instantiation of the `out = ψ + c·k` stage pass — two complex
/// elements per lane vector, same per-element expression as the scalar
/// loop.
///
/// # Safety
/// Requires `chunk.len() % 2 == 0`, `k_chunk.len() == chunk.len()`, and
/// `base + chunk.len() ≤ psi.len()` (`k_chunk` is the K-slice for the same
/// index range, passed chunk-local so the fused passes can hand over the
/// cache-hot block they just wrote).
#[inline(always)]
unsafe fn stage_input_chunk_lanes(
    psi: &[Complex64],
    k_chunk: &[Complex64],
    c: Complex64,
    base: usize,
    chunk: &mut [Complex64],
) {
    debug_assert_eq!(chunk.len() % 2, 0);
    debug_assert_eq!(chunk.len(), k_chunk.len());
    debug_assert!(base + chunk.len() <= psi.len());
    let cm = CMul::new(c);
    let psip = complex_as_f64(psi).as_ptr();
    let kp = complex_as_f64(k_chunk).as_ptr();
    let outp = complex_as_f64_mut(chunk).as_mut_ptr();
    for j in 0..chunk.len() / 2 {
        let p = f64x4::from_ptr(psip.add(2 * base + 4 * j));
        let kv = f64x4::from_ptr(kp.add(4 * j));
        (p + cm.apply(kv)).write_ptr(outp.add(4 * j));
    }
}

/// Hand-written AVX2 instantiation of [`stage_input_chunk_lanes`] — exact
/// IEEE lane ops, no FMA, bit-identical to the scalar loop.
///
/// # Safety
/// Same contract as [`stage_input_chunk_lanes`], plus AVX2 availability.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn stage_input_chunk_avx2(
    psi: &[Complex64],
    k_chunk: &[Complex64],
    c: Complex64,
    base: usize,
    chunk: &mut [Complex64],
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(chunk.len() % 2, 0);
    debug_assert_eq!(chunk.len(), k_chunk.len());
    debug_assert!(base + chunk.len() <= psi.len());
    let c_re = _mm256_set1_pd(c.re);
    let c_im = _mm256_setr_pd(-c.im, c.im, -c.im, c.im);
    let psip = complex_as_f64(psi).as_ptr();
    let kp = complex_as_f64(k_chunk).as_ptr();
    let outp = complex_as_f64_mut(chunk).as_mut_ptr();
    for j in 0..chunk.len() / 2 {
        let p = _mm256_loadu_pd(psip.add(2 * base + 4 * j));
        let kv = _mm256_loadu_pd(kp.add(4 * j));
        let ck = _mm256_add_pd(
            _mm256_mul_pd(kv, c_re),
            _mm256_mul_pd(_mm256_permute_pd(kv, 0x5), c_im),
        );
        _mm256_storeu_pd(outp.add(4 * j), _mm256_add_pd(p, ck));
    }
}

/// Hand-written AVX-512F instantiation of [`stage_input_chunk_lanes`] —
/// four complex elements per iteration, same IEEE ops in the same order.
///
/// # Safety
/// Same contract as [`stage_input_chunk_lanes`], plus `chunk.len() % 4 == 0`
/// and AVX-512F availability.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn stage_input_chunk_avx512(
    psi: &[Complex64],
    k_chunk: &[Complex64],
    c: Complex64,
    base: usize,
    chunk: &mut [Complex64],
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(chunk.len() % 4, 0);
    debug_assert_eq!(chunk.len(), k_chunk.len());
    debug_assert!(base + chunk.len() <= psi.len());
    let c_re = _mm512_set1_pd(c.re);
    #[rustfmt::skip]
    let c_im = _mm512_setr_pd(-c.im, c.im, -c.im, c.im, -c.im, c.im, -c.im, c.im);
    let psip = complex_as_f64(psi).as_ptr();
    let kp = complex_as_f64(k_chunk).as_ptr();
    let outp = complex_as_f64_mut(chunk).as_mut_ptr();
    for j in 0..chunk.len() / 4 {
        let p = _mm512_loadu_pd(psip.add(2 * base + 8 * j));
        let kv = _mm512_loadu_pd(kp.add(8 * j));
        let ck = _mm512_add_pd(
            _mm512_mul_pd(kv, c_re),
            _mm512_mul_pd(_mm512_permute_pd(kv, 0x55), c_im),
        );
        _mm512_storeu_pd(outp.add(8 * j), _mm512_add_pd(p, ck));
    }
}

/// # Safety
/// Same contract as [`stage_input_chunk_lanes`].
#[inline]
unsafe fn stage_input_chunk_dispatch(
    psi: &[Complex64],
    k_chunk: &[Complex64],
    c: Complex64,
    base: usize,
    chunk: &mut [Complex64],
) {
    #[cfg(target_arch = "x86_64")]
    {
        if chunk.len().is_multiple_of(4) && simd::avx512_available() {
            // SAFETY: AVX-512F verified at runtime, length divisibility just
            // checked; contract forwarded from the caller.
            unsafe { stage_input_chunk_avx512(psi, k_chunk, c, base, chunk) };
            return;
        }
        if simd::avx2_available() {
            // SAFETY: AVX2 support was just verified at runtime; contract
            // forwarded from the caller.
            unsafe { stage_input_chunk_avx2(psi, k_chunk, c, base, chunk) };
            return;
        }
    }
    // SAFETY: contract forwarded from the caller.
    unsafe { stage_input_chunk_lanes(psi, k_chunk, c, base, chunk) }
}

/// SIMD instantiation of the RK4 combine pass:
/// `ψ += c·(K1 + 2(K2 + K3) + K4)`, two complex elements per vector with
/// the scalar expression's association order.
///
/// # Safety
/// Requires `chunk.len() % 2 == 0`, `k4_chunk.len() == chunk.len()`, and
/// `base + chunk.len()` within the length of each of `k1`–`k3` (`k4_chunk`
/// is the K4-slice for the same index range, chunk-local so the fused
/// final pass can hand over the cache-hot block it just wrote).
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn combine_chunk_lanes(
    k1: &[Complex64],
    k2: &[Complex64],
    k3: &[Complex64],
    k4_chunk: &[Complex64],
    c: Complex64,
    base: usize,
    chunk: &mut [Complex64],
) {
    debug_assert_eq!(chunk.len() % 2, 0);
    debug_assert_eq!(chunk.len(), k4_chunk.len());
    debug_assert!(base + chunk.len() <= k1.len().min(k2.len()).min(k3.len()));
    let cm = CMul::new(c);
    let two = f64x4::splat(2.0);
    let k1p = complex_as_f64(k1).as_ptr();
    let k2p = complex_as_f64(k2).as_ptr();
    let k3p = complex_as_f64(k3).as_ptr();
    let k4p = complex_as_f64(k4_chunk).as_ptr();
    let outp = complex_as_f64_mut(chunk).as_mut_ptr();
    for j in 0..chunk.len() / 2 {
        let off = 2 * base + 4 * j;
        let v1 = f64x4::from_ptr(k1p.add(off));
        let v2 = f64x4::from_ptr(k2p.add(off));
        let v3 = f64x4::from_ptr(k3p.add(off));
        let v4 = f64x4::from_ptr(k4p.add(4 * j));
        let o = outp.add(4 * j);
        let cur = f64x4::from_ptr(o);
        let sum = v1 + (v2 + v3) * two + v4;
        (cur + cm.apply(sum)).write_ptr(o);
    }
}

/// Hand-written AVX2 instantiation of [`combine_chunk_lanes`] — exact IEEE
/// lane ops in the scalar expression's association order, no FMA.
///
/// # Safety
/// Same contract as [`combine_chunk_lanes`], plus AVX2 availability.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
#[allow(clippy::too_many_arguments)]
unsafe fn combine_chunk_avx2(
    k1: &[Complex64],
    k2: &[Complex64],
    k3: &[Complex64],
    k4_chunk: &[Complex64],
    c: Complex64,
    base: usize,
    chunk: &mut [Complex64],
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(chunk.len() % 2, 0);
    debug_assert_eq!(chunk.len(), k4_chunk.len());
    debug_assert!(base + chunk.len() <= k1.len().min(k2.len()).min(k3.len()));
    let c_re = _mm256_set1_pd(c.re);
    let c_im = _mm256_setr_pd(-c.im, c.im, -c.im, c.im);
    let two = _mm256_set1_pd(2.0);
    let k1p = complex_as_f64(k1).as_ptr();
    let k2p = complex_as_f64(k2).as_ptr();
    let k3p = complex_as_f64(k3).as_ptr();
    let k4p = complex_as_f64(k4_chunk).as_ptr();
    let outp = complex_as_f64_mut(chunk).as_mut_ptr();
    for j in 0..chunk.len() / 2 {
        let off = 2 * base + 4 * j;
        let v1 = _mm256_loadu_pd(k1p.add(off));
        let v2 = _mm256_loadu_pd(k2p.add(off));
        let v3 = _mm256_loadu_pd(k3p.add(off));
        let v4 = _mm256_loadu_pd(k4p.add(4 * j));
        let o = outp.add(4 * j);
        let cur = _mm256_loadu_pd(o);
        // K1 + 2(K2 + K3) + K4, association order of the scalar loop
        let sum = _mm256_add_pd(
            _mm256_add_pd(v1, _mm256_mul_pd(_mm256_add_pd(v2, v3), two)),
            v4,
        );
        let csum = _mm256_add_pd(
            _mm256_mul_pd(sum, c_re),
            _mm256_mul_pd(_mm256_permute_pd(sum, 0x5), c_im),
        );
        _mm256_storeu_pd(o, _mm256_add_pd(cur, csum));
    }
}

/// Hand-written AVX-512F instantiation of [`combine_chunk_lanes`] — four
/// complex elements per iteration, scalar association order, no FMA.
///
/// # Safety
/// Same contract as [`combine_chunk_lanes`], plus `chunk.len() % 4 == 0`
/// and AVX-512F availability.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn combine_chunk_avx512(
    k1: &[Complex64],
    k2: &[Complex64],
    k3: &[Complex64],
    k4_chunk: &[Complex64],
    c: Complex64,
    base: usize,
    chunk: &mut [Complex64],
) {
    use std::arch::x86_64::*;
    debug_assert_eq!(chunk.len() % 4, 0);
    debug_assert_eq!(chunk.len(), k4_chunk.len());
    debug_assert!(base + chunk.len() <= k1.len().min(k2.len()).min(k3.len()));
    let c_re = _mm512_set1_pd(c.re);
    #[rustfmt::skip]
    let c_im = _mm512_setr_pd(-c.im, c.im, -c.im, c.im, -c.im, c.im, -c.im, c.im);
    let two = _mm512_set1_pd(2.0);
    let k1p = complex_as_f64(k1).as_ptr();
    let k2p = complex_as_f64(k2).as_ptr();
    let k3p = complex_as_f64(k3).as_ptr();
    let k4p = complex_as_f64(k4_chunk).as_ptr();
    let outp = complex_as_f64_mut(chunk).as_mut_ptr();
    for j in 0..chunk.len() / 4 {
        let off = 2 * base + 8 * j;
        let v1 = _mm512_loadu_pd(k1p.add(off));
        let v2 = _mm512_loadu_pd(k2p.add(off));
        let v3 = _mm512_loadu_pd(k3p.add(off));
        let v4 = _mm512_loadu_pd(k4p.add(8 * j));
        let o = outp.add(8 * j);
        let cur = _mm512_loadu_pd(o);
        // K1 + 2(K2 + K3) + K4, association order of the scalar loop
        let sum = _mm512_add_pd(
            _mm512_add_pd(v1, _mm512_mul_pd(_mm512_add_pd(v2, v3), two)),
            v4,
        );
        let csum = _mm512_add_pd(
            _mm512_mul_pd(sum, c_re),
            _mm512_mul_pd(_mm512_permute_pd(sum, 0x55), c_im),
        );
        _mm512_storeu_pd(o, _mm512_add_pd(cur, csum));
    }
}

/// # Safety
/// Same contract as [`combine_chunk_lanes`].
#[inline]
#[allow(clippy::too_many_arguments)]
unsafe fn combine_chunk_dispatch(
    k1: &[Complex64],
    k2: &[Complex64],
    k3: &[Complex64],
    k4_chunk: &[Complex64],
    c: Complex64,
    base: usize,
    chunk: &mut [Complex64],
) {
    #[cfg(target_arch = "x86_64")]
    {
        if chunk.len().is_multiple_of(4) && simd::avx512_available() {
            // SAFETY: AVX-512F verified at runtime, length divisibility just
            // checked; contract forwarded from the caller.
            unsafe { combine_chunk_avx512(k1, k2, k3, k4_chunk, c, base, chunk) };
            return;
        }
        if simd::avx2_available() {
            // SAFETY: AVX2 support was just verified at runtime; contract
            // forwarded from the caller.
            unsafe { combine_chunk_avx2(k1, k2, k3, k4_chunk, c, base, chunk) };
            return;
        }
    }
    // SAFETY: contract forwarded from the caller.
    unsafe { combine_chunk_lanes(k1, k2, k3, k4_chunk, c, base, chunk) }
}

/// Shared pointer to a second output buffer of a fused pass. Each worker
/// writes only its own chunk's index range, so ranges never overlap.
struct SendPtr(*mut Complex64);
// SAFETY: the pointer is only dereferenced inside `from_raw_parts_mut`
// windows that are disjoint per chunk (the same partition as the
// `for_each_chunk` driving the pass).
unsafe impl Send for SendPtr {}
unsafe impl Sync for SendPtr {}

/// Fused RK4 pass: `k_out = H·input`, and per chunk — while the freshly
/// written K-block is cache-hot — the next stage input
/// `stage_out = ψ + c·k_out`.
///
/// `stage_out` must be a buffer distinct from `input` (the `H·ψ` gather of
/// other chunks still reads all of `input`); the caller alternates two
/// stage buffers to guarantee this. Every element of `stage_out` is
/// computed from fully written inputs, so fusion changes neither values
/// nor bits relative to running the two passes back-to-back.
#[allow(clippy::too_many_arguments)]
fn apply_h_stage_pass(
    h: &RydbergHamiltonian,
    input: &[Complex64],
    omega: f64,
    delta: f64,
    phase: f64,
    k_out: &mut [Complex64],
    psi: &[Complex64],
    c: Complex64,
    stage_out: &mut [Complex64],
) {
    let dim = input.len();
    debug_assert!(k_out.len() == dim && stage_out.len() == dim && psi.len() == dim);
    let sp = SendPtr(stage_out.as_mut_ptr());
    let sp = &sp; // capture the Sync wrapper, not the raw pointer field
    let pass = |base: usize, kchunk: &mut [Complex64]| {
        apply_h_chunk_dispatch(h, input, omega, delta, phase, base, kchunk);
        // SAFETY: disjoint per-chunk window of `stage_out` (same partition
        // as the pass itself).
        let schunk = unsafe { std::slice::from_raw_parts_mut(sp.0.add(base), kchunk.len()) };
        if kchunk.len() >= 2 && kchunk.len().is_multiple_of(2) {
            // SAFETY: even chunk of an even-length buffer; `psi` spans the
            // full dimension and `kchunk` is the matching K-slice.
            unsafe { stage_input_chunk_dispatch(psi, kchunk, c, base, schunk) };
        } else {
            for (j, slot) in schunk.iter_mut().enumerate() {
                *slot = psi[base + j] + c * kchunk[j];
            }
        }
    };
    for_each_chunk(k_out, AMP_CHUNK, AMP_FORK_AT, pass);
}

/// Fused final RK4 pass: `k_out = H·input`, and per chunk — K4 still
/// cache-hot — the combine update `ψ += c·(K1 + 2(K2+K3) + K4)`.
///
/// `psi` is not an input of this pass's `H·ψ` gather (`input` is the last
/// stage vector), so updating it per chunk is safe; K1–K3 are only read.
#[allow(clippy::too_many_arguments)]
fn apply_h_combine_pass(
    h: &RydbergHamiltonian,
    input: &[Complex64],
    omega: f64,
    delta: f64,
    phase: f64,
    k_out: &mut [Complex64],
    k1: &[Complex64],
    k2: &[Complex64],
    k3: &[Complex64],
    c: Complex64,
    psi: &mut [Complex64],
) {
    let dim = input.len();
    debug_assert!(k_out.len() == dim && psi.len() == dim);
    debug_assert!(k1.len() == dim && k2.len() == dim && k3.len() == dim);
    let pp = SendPtr(psi.as_mut_ptr());
    let pp = &pp; // capture the Sync wrapper, not the raw pointer field
    let pass = |base: usize, kchunk: &mut [Complex64]| {
        apply_h_chunk_dispatch(h, input, omega, delta, phase, base, kchunk);
        // SAFETY: disjoint per-chunk window of `psi` (same partition as the
        // pass itself).
        let pchunk = unsafe { std::slice::from_raw_parts_mut(pp.0.add(base), kchunk.len()) };
        if kchunk.len() >= 2 && kchunk.len().is_multiple_of(2) {
            // SAFETY: even chunk of an even-length buffer; K1–K3 span the
            // full dimension and `kchunk` is the matching K4-slice.
            unsafe { combine_chunk_dispatch(k1, k2, k3, kchunk, c, base, pchunk) };
        } else {
            for (j, slot) in pchunk.iter_mut().enumerate() {
                let b = base + j;
                *slot += c * (k1[b] + 2.0 * (k2[b] + k3[b]) + kchunk[j]);
            }
        }
    };
    for_each_chunk(k_out, AMP_CHUNK, AMP_FORK_AT, pass);
}

/// Evolve `state` through one RK4 step of `dt` at fixed drive values
/// (the drive is piecewise-constant over the step — midpoint sampled),
/// reusing the workspace buffers.
///
/// The stage derivatives are stored as `K = H·ψ` (without the `−i` of the
/// Schrödinger right-hand side); the `−i` is folded into the purely
/// imaginary stage/update coefficients, which removes one full pass over
/// the state per stage.
pub fn rk4_step_ws(
    h: &RydbergHamiltonian,
    state: &mut StateVector,
    omega: f64,
    delta: f64,
    phase: f64,
    dt: f64,
    ws: &mut SvWorkspace,
) {
    let dim = state.amps.len();
    ws.ensure(dim);
    let c_half = Complex64::new(0.0, -dt / 2.0);
    let c_full = Complex64::new(0.0, -dt);
    let c_comb = Complex64::new(0.0, -dt / 6.0);

    // Fused passes: each stage input (and the final combine) is formed per
    // chunk right after the chunk's K-block is written, while it is still
    // cache-hot — one pass over memory per stage instead of two. Stage
    // outputs alternate between `tmp` and `tmp2` because the H·ψ gather of
    // a pass reads its entire input buffer across chunk boundaries.
    let psi = &mut state.amps;
    let (k1, k2, k3, k4) = (&mut ws.k1, &mut ws.k2, &mut ws.k3, &mut ws.k4);
    let (tmp, tmp2) = (&mut ws.tmp, &mut ws.tmp2);
    apply_h_stage_pass(h, psi, omega, delta, phase, k1, psi, c_half, tmp);
    apply_h_stage_pass(h, tmp, omega, delta, phase, k2, psi, c_half, tmp2);
    apply_h_stage_pass(h, tmp2, omega, delta, phase, k3, psi, c_full, tmp);
    apply_h_combine_pass(h, tmp, omega, delta, phase, k4, k1, k2, k3, c_comb, psi);
}

/// One RK4 step with a throwaway workspace — compatibility wrapper for
/// callers stepping a handful of times; hot loops should hold an
/// [`SvWorkspace`] and call [`rk4_step_ws`].
pub fn rk4_step(
    h: &RydbergHamiltonian,
    state: &mut StateVector,
    omega: f64,
    delta: f64,
    phase: f64,
    dt: f64,
) {
    let mut ws = SvWorkspace::new();
    rk4_step_ws(h, state, omega, delta, phase, dt, &mut ws);
}

/// Integrator configuration for the state-vector backend.
#[derive(Debug, Clone)]
pub struct SvConfig {
    /// Steps are at most `stability_factor / energy_scale` µs. RK4 is
    /// stable up to 2√2 on the imaginary axis and `energy_scale` bounds the
    /// spectral radius; the default is the largest factor whose distribution
    /// stays within the TV budget of `emulator_perf`'s `converge` case on
    /// every row.
    pub stability_factor: f64,
}

impl Default for SvConfig {
    fn default() -> Self {
        SvConfig {
            stability_factor: 1.2,
        }
    }
}

/// The most one step may turn a single atom under the drive alone, in
/// radians: `dt · (Ω/2 + |δ|) ≤ ATOM_STEP`. On a lone atom `energy_scale`
/// is tight, so a factor measured on many-atom programs is too coarse there;
/// at 0.1 a half-π pulse lands within 1e-6 of its analytic population.
const ATOM_STEP: f64 = 0.1;

impl SvConfig {
    /// The grid [`evolve_sequence_ws`] steps `seq` on: cut at every drive
    /// edge, each step at most `stability_factor / energy_scale` and at most
    /// [`ATOM_STEP`] of one atom's rotation, both from the schedule's
    /// strongest Ω and |δ| (the waveforms' extrema; a valid Ω is ≥ 0).
    pub fn grid(&self, seq: &Sequence, h: &RydbergHamiltonian) -> DiscretizedDrive {
        let (lo, hi) = seq.detuning_range();
        let (omax, dmax) = (seq.max_amplitude(), hi.max(-lo));
        let many_body = self.stability_factor / h.energy_scale(omax, dmax).max(1e-9);
        let one_atom = ATOM_STEP / (omax / 2.0 + dmax);
        DiscretizedDrive::aligned(seq, many_body.min(one_atom))
    }
}

/// Run the full program and return the final state.
pub fn evolve_sequence(seq: &Sequence, c6: f64, cfg: &SvConfig) -> StateVector {
    let mut ws = SvWorkspace::new();
    evolve_sequence_ws(seq, c6, cfg, &mut ws)
}

/// Run the full program reusing the caller's workspace: the RK4 scratch
/// buffers stay alive across all steps (and across calls, for hot loops
/// that evolve many sequences of the same register size).
pub fn evolve_sequence_ws(
    seq: &Sequence,
    c6: f64,
    cfg: &SvConfig,
    ws: &mut SvWorkspace,
) -> StateVector {
    let h = RydbergHamiltonian::new(&seq.register, c6);
    let mut state = StateVector::ground(h.n);
    for (dt, (omega, delta, phase)) in cfg.grid(seq, &h).steps {
        rk4_step_ws(&h, &mut state, omega, delta, phase, dt, ws);
    }
    state.renormalize();
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_program::units::C6_COEFF;
    use hpcqc_program::{Pulse, Register, SequenceBuilder, Waveform};

    fn single_atom_seq(duration: f64, omega: f64, delta: f64) -> Sequence {
        let reg = Register::from_coords(&[(0.0, 0.0)]).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(duration, omega, delta, 0.0).unwrap());
        b.build().unwrap()
    }

    #[test]
    fn ground_state_is_normalized() {
        let s = StateVector::ground(3);
        assert_eq!(s.amps.len(), 8);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-15);
        assert_eq!(s.rydberg_population(0), 0.0);
    }

    #[test]
    fn rabi_oscillation_single_atom() {
        // Resonant drive: P_r(t) = sin²(Ωt/2). Pick Ωt = π for full transfer.
        let omega = 4.0;
        let t_pi = std::f64::consts::PI / omega;
        let seq = single_atom_seq(t_pi, omega, 0.0);
        let s = evolve_sequence(&seq, C6_COEFF, &SvConfig::default());
        let p = s.rydberg_population(0);
        assert!((p - 1.0).abs() < 1e-6, "π-pulse transfer: got {p}");
    }

    #[test]
    fn half_pi_pulse_gives_half_population() {
        let omega = 4.0;
        let t = std::f64::consts::PI / (2.0 * omega);
        let seq = single_atom_seq(t, omega, 0.0);
        let s = evolve_sequence(&seq, C6_COEFF, &SvConfig::default());
        assert!((s.rydberg_population(0) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn detuned_rabi_reduced_contrast() {
        // Generalized Rabi: max transfer = Ω²/(Ω²+δ²).
        let omega: f64 = 2.0;
        let delta: f64 = 2.0;
        let gen = (omega * omega + delta * delta).sqrt();
        let t = std::f64::consts::PI / gen; // half generalized period
        let seq = single_atom_seq(t, omega, delta);
        let s = evolve_sequence(&seq, C6_COEFF, &SvConfig::default());
        let expected = omega * omega / (gen * gen);
        assert!(
            (s.rydberg_population(0) - expected).abs() < 1e-5,
            "got {}, expected {expected}",
            s.rydberg_population(0)
        );
    }

    #[test]
    fn pulse_edges_off_the_nanosecond_grid_stay_within_the_tv_budget() {
        // `e2e_perf`'s four-pulse shape with 0.1234 µs pulses: a grid that
        // steps across the pulse edges integrates the wrong drive for part
        // of a step, a first-order error (3e-3 TV on a uniform 1 ns grid).
        // The reference steps each pulse on its own 1e-4 µs grid.
        let pulses = [
            (5.0, 0.0, 0.0),
            (0.0, 4.0, 0.0),
            (4.0, 0.0, 0.6),
            (0.0, 3.0, 0.0),
        ];
        for n in [4, 8] {
            let mut b = SequenceBuilder::new(Register::linear(n, 10.0).unwrap());
            for &(o, d, p) in &pulses {
                b.add_global_pulse(Pulse::constant(0.1234, o, d, p).unwrap());
            }
            let seq = b.build().unwrap();
            let got = evolve_sequence(&seq, C6_COEFF, &SvConfig::default()).probabilities();
            let h = RydbergHamiltonian::new(&seq.register, C6_COEFF);
            let (mut reference, mut ws) = (StateVector::ground(n), SvWorkspace::new());
            for &(o, d, p) in &pulses {
                for _ in 0..1234 {
                    rk4_step_ws(&h, &mut reference, o, d, p, 1e-4, &mut ws);
                }
            }
            reference.renormalize();
            let want = reference.probabilities();
            let tv: f64 = 0.5
                * got
                    .iter()
                    .zip(&want)
                    .map(|(a, b)| (a - b).abs())
                    .sum::<f64>();
            assert!(
                tv <= 1e-4,
                "{n} q: TV {tv:.3e} from the converged distribution"
            );
        }
    }

    #[test]
    fn norm_preserved_through_evolution() {
        let reg = Register::linear(4, 8.0).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(
            Pulse::new(
                Waveform::ramp(0.5, 0.0, 6.0).unwrap(),
                Waveform::ramp(0.5, -8.0, 8.0).unwrap(),
                0.3,
            )
            .unwrap(),
        );
        let seq = b.build().unwrap();
        let h = RydbergHamiltonian::new(&seq.register, C6_COEFF);
        let mut state = StateVector::ground(4);
        for (dt, (o, d, p)) in DiscretizedDrive::aligned(&seq, 1e-3).steps {
            rk4_step(&h, &mut state, o, d, p, dt);
        }
        assert!(
            (state.norm_sqr() - 1.0).abs() < 1e-8,
            "norm drift: {}",
            state.norm_sqr()
        );
    }

    #[test]
    fn blockade_suppresses_double_excitation() {
        // Two atoms well inside the blockade radius driven by a π-pulse on
        // the collective enhanced frequency: ⟨n₀n₁⟩ stays tiny.
        let omega: f64 = 4.0;
        let spacing = 4.0; // blockade radius at Ω=4 is (C6/4)^{1/6} ≈ 10.6 µm
        let reg = Register::linear(2, spacing).unwrap();
        let mut b = SequenceBuilder::new(reg);
        let t = std::f64::consts::PI / (omega * 2f64.sqrt());
        b.add_global_pulse(Pulse::constant(t, omega, 0.0, 0.0).unwrap());
        let seq = b.build().unwrap();
        let s = evolve_sequence(&seq, C6_COEFF, &SvConfig::default());
        let double = s.rydberg_correlation(0, 1);
        assert!(double < 0.01, "blockade violated: ⟨n0 n1⟩ = {double}");
        // and the symmetric single-excitation state is reached
        let single = s.rydberg_population(0) + s.rydberg_population(1) - 2.0 * double;
        assert!(single > 0.9, "collective excitation missing: {single}");
    }

    #[test]
    fn no_blockade_at_large_distance() {
        // Far-separated atoms behave independently: π-pulse excites both.
        let omega = 4.0;
        let reg = Register::linear(2, 60.0).unwrap();
        let mut b = SequenceBuilder::new(reg);
        let t = std::f64::consts::PI / omega;
        b.add_global_pulse(Pulse::constant(t, omega, 0.0, 0.0).unwrap());
        let seq = b.build().unwrap();
        let s = evolve_sequence(&seq, C6_COEFF, &SvConfig::default());
        assert!(
            s.rydberg_correlation(0, 1) > 0.95,
            "independent atoms both excite"
        );
    }

    /// Energy expectation ⟨ψ|H(ω,δ,φ)|ψ⟩ at instantaneous drive values.
    fn energy(state: &StateVector, h: &RydbergHamiltonian, (o, d, p): (f64, f64, f64)) -> f64 {
        let mut hpsi = vec![ZERO; state.amps.len()];
        apply_h_into(h, &state.amps, o, d, p, &mut hpsi);
        state
            .amps
            .iter()
            .zip(&hpsi)
            .map(|(a, b)| (a.conj() * b).re)
            .sum()
    }

    /// Fidelity |⟨a|b⟩|².
    fn fidelity(a: &StateVector, b: &StateVector) -> f64 {
        let overlap: Complex64 = a.amps.iter().zip(&b.amps).map(|(x, y)| x.conj() * y).sum();
        overlap.norm_sqr()
    }

    #[test]
    fn energy_conserved_under_constant_drive() {
        let reg = Register::linear(3, 7.0).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(0.5, 3.0, 1.0, 0.0).unwrap());
        let seq = b.build().unwrap();
        let h = RydbergHamiltonian::new(&seq.register, C6_COEFF);
        let mut state = StateVector::ground(3);
        let mut energies = Vec::new();
        for (dt, (o, d, p)) in DiscretizedDrive::aligned(&seq, 1e-3).steps {
            rk4_step(&h, &mut state, o, d, p, dt);
            energies.push(energy(&state, &h, (o, d, p)));
        }
        let e0 = energies[0];
        for e in &energies {
            assert!((e - e0).abs() < 1e-6, "energy drift under constant H");
        }
    }

    #[test]
    fn phase_affects_axis_but_not_population_from_ground() {
        // From |0…0⟩, a phase rotation of the drive changes the Bloch axis
        // but not the excitation probability.
        let omega = 3.0;
        let t = 0.4;
        let reg = Register::from_coords(&[(0.0, 0.0)]).unwrap();
        let mk = |phase: f64| {
            let mut b = SequenceBuilder::new(reg.clone());
            b.add_global_pulse(Pulse::constant(t, omega, 0.0, phase).unwrap());
            evolve_sequence(&b.build().unwrap(), C6_COEFF, &SvConfig::default())
        };
        let p0 = mk(0.0).rydberg_population(0);
        let p1 = mk(1.3).rydberg_population(0);
        assert!((p0 - p1).abs() < 1e-9);
    }

    #[test]
    fn fidelity_of_identical_evolutions_is_one() {
        let seq = single_atom_seq(0.3, 2.0, 1.0);
        let a = evolve_sequence(&seq, C6_COEFF, &SvConfig::default());
        let b = evolve_sequence(&seq, C6_COEFF, &SvConfig::default());
        assert!((fidelity(&a, &b) - 1.0).abs() < 1e-12);
    }

    /// Deterministic pseudo-random amplitudes (xorshift64) — keeps the
    /// kernel-equivalence tests independent of the rand crate's API.
    fn pseudo_random_amps(dim: usize, mut x: u64) -> Vec<Complex64> {
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..dim).map(|_| Complex64::new(step(), step())).collect()
    }

    #[test]
    fn parallel_kernel_matches_serial_bit_for_bit() {
        // dim 2^13 is below AMP_FORK_AT, so the forked arm is called
        // directly: four chunks on the machine's workers, and amplitudes
        // must equal the forced-serial kernel exactly (not approximately).
        let n = 13;
        let reg = Register::linear(n, 7.0).unwrap();
        let h = RydbergHamiltonian::new(&reg, C6_COEFF);
        let psi = pseudo_random_amps(h.dim(), 0x5EED_CAFE);
        let mut par = vec![ZERO; h.dim()];
        let mut ser = vec![ZERO; h.dim()];
        let forked_apply_h = |o: f64, d: f64, p: f64, out: &mut [Complex64]| {
            crate::par::forked(out, AMP_CHUNK, |base, chunk| {
                apply_h_chunk_dispatch(&h, &psi, o, d, p, base, chunk);
            });
        };
        forked_apply_h(3.2, -1.1, 0.7, &mut par);
        apply_h_into_serial(&h, &psi, 3.2, -1.1, 0.7, &mut ser);
        assert!(par.iter().any(|a| a.norm_sqr() > 0.0));
        assert_eq!(par, ser);
        // Ω = 0 takes the diagonal-only fast path — same contract.
        forked_apply_h(0.0, 2.5, 0.0, &mut par);
        apply_h_into_serial(&h, &psi, 0.0, 2.5, 0.0, &mut ser);
        assert_eq!(par, ser);
        // And the cut-over arm `apply_h_into` takes at this size agrees.
        apply_h_into(&h, &psi, 3.2, -1.1, 0.7, &mut par);
        apply_h_into_serial(&h, &psi, 3.2, -1.1, 0.7, &mut ser);
        assert_eq!(par, ser);
    }

    #[test]
    fn simd_kernel_matches_scalar_bit_for_bit() {
        // Small odd/even register sizes exercise the single-chunk SIMD path
        // (dim ≤ AMP_CHUNK) against the scalar reference, including
        // the Ω = 0 diagonal fast path and a negative phase.
        for n in [2usize, 3, 5, 8] {
            let reg = Register::linear(n, 6.5).unwrap();
            let h = RydbergHamiltonian::new(&reg, C6_COEFF);
            let psi = pseudo_random_amps(h.dim(), 0xABCD_0001 + n as u64);
            let mut simd_out = vec![ZERO; h.dim()];
            let mut scalar_out = vec![ZERO; h.dim()];
            for &(o, d, p) in &[(3.2, -1.1, 0.7), (0.0, 2.5, 0.0), (1.0, 0.0, -2.2)] {
                apply_h_into(&h, &psi, o, d, p, &mut simd_out);
                apply_h_into_serial(&h, &psi, o, d, p, &mut scalar_out);
                assert_eq!(
                    bits(&simd_out),
                    bits(&scalar_out),
                    "n={n} drive=({o},{d},{p})"
                );
            }
        }
    }

    type ApplyHChunk =
        unsafe fn(&RydbergHamiltonian, &[Complex64], f64, f64, f64, usize, &mut [Complex64]);
    type StageChunk = unsafe fn(&[Complex64], &[Complex64], Complex64, usize, &mut [Complex64]);
    type CombineChunk = unsafe fn(
        &[Complex64],
        &[Complex64],
        &[Complex64],
        &[Complex64],
        Complex64,
        usize,
        &mut [Complex64],
    );

    /// Every SIMD tier this CPU can execute. The dispatch picks one per
    /// host, so the parity tests above reach only that one; this lists them
    /// all so each can be called directly. A tier the CPU lacks is skipped.
    fn host_tiers() -> Vec<(&'static str, ApplyHChunk, StageChunk, CombineChunk)> {
        #[allow(unused_mut)]
        let mut tiers: Vec<(&'static str, ApplyHChunk, StageChunk, CombineChunk)> = vec![(
            "lanes",
            apply_h_chunk_lanes,
            stage_input_chunk_lanes,
            combine_chunk_lanes,
        )];
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") {
                tiers.push((
                    "avx2",
                    apply_h_chunk_avx2,
                    stage_input_chunk_avx2,
                    combine_chunk_avx2,
                ));
            } else {
                eprintln!("skipping avx2 tier: not supported by this CPU");
            }
            if is_x86_feature_detected!("avx512f") {
                tiers.push((
                    "avx512",
                    apply_h_chunk_avx512,
                    stage_input_chunk_avx512,
                    combine_chunk_avx512,
                ));
            } else {
                eprintln!("skipping avx512 tier: not supported by this CPU");
            }
        }
        tiers
    }

    /// Amplitudes as raw bit patterns: `==` on `f64` equates `-0.0` and
    /// `0.0`, which is exactly the difference a blend or mask trick makes.
    fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
        v.iter().map(|a| (a.re.to_bits(), a.im.to_bits())).collect()
    }

    /// Pseudo-random amplitudes with signed zeros planted in the real part,
    /// the imaginary part, and both.
    fn amps_with_signed_zeros(dim: usize, seed: u64) -> Vec<Complex64> {
        let mut v = pseudo_random_amps(dim, seed);
        v[0].re = -0.0;
        v[1].im = -0.0;
        v[2] = Complex64::new(-0.0, -0.0);
        v[dim - 1] = ZERO;
        v
    }

    #[test]
    fn every_host_simd_tier_matches_scalar_bit_for_bit() {
        let tiers = host_tiers();
        for n in [2usize, 3, 5, 8] {
            let reg = Register::linear(n, 6.5).unwrap();
            let h = RydbergHamiltonian::new(&reg, C6_COEFF);
            let dim = h.dim();
            let psi = amps_with_signed_zeros(dim, 0xABCD_0001 + n as u64);
            let k1 = amps_with_signed_zeros(dim, 0x1111 + n as u64);
            let k2 = amps_with_signed_zeros(dim, 0x2222 + n as u64);
            let k3 = amps_with_signed_zeros(dim, 0x3333 + n as u64);
            let k4 = amps_with_signed_zeros(dim, 0x4444 + n as u64);
            let c = Complex64::new(0.0, -1e-3 / 6.0);
            // One chunk, and two chunks so the second runs at `base != 0`.
            let splits: &[usize] = if dim >= 8 { &[dim, dim / 2] } else { &[dim] };
            for &(name, apply_h, stage, combine) in &tiers {
                for &chunk_len in splits {
                    let ctx = format!("tier={name} n={n} chunk={chunk_len}");
                    for &(o, d, p) in &[(3.2, -1.1, 0.7), (0.0, 2.5, 0.0), (1.0, 0.0, -2.2)] {
                        let mut want = vec![ZERO; dim];
                        apply_h_chunk(&h, &psi, o, d, p, 0, &mut want);
                        let mut got = vec![ZERO; dim];
                        for (ci, chunk) in got.chunks_mut(chunk_len).enumerate() {
                            // SAFETY: `psi.len() == h.dim()`, n ≥ 2, chunks are
                            // 4-aligned slices of a `dim`-long buffer, and
                            // `host_tiers` checked the CPU feature.
                            unsafe { apply_h(&h, &psi, o, d, p, ci * chunk_len, chunk) };
                        }
                        assert_eq!(bits(&got), bits(&want), "apply_h {ctx} drive=({o},{d},{p})");
                    }

                    let want: Vec<Complex64> = (0..dim).map(|b| psi[b] + c * k1[b]).collect();
                    let mut got = vec![ZERO; dim];
                    for (ci, chunk) in got.chunks_mut(chunk_len).enumerate() {
                        let base = ci * chunk_len;
                        // SAFETY: chunk lengths are multiples of 4, `k1[base..]`
                        // is the matching slice, `psi` spans `dim`.
                        unsafe { stage(&psi, &k1[base..base + chunk.len()], c, base, chunk) };
                    }
                    assert_eq!(bits(&got), bits(&want), "stage_input {ctx}");

                    let want: Vec<Complex64> = (0..dim)
                        .map(|b| psi[b] + c * (k1[b] + 2.0 * (k2[b] + k3[b]) + k4[b]))
                        .collect();
                    let mut got = psi.clone();
                    for (ci, chunk) in got.chunks_mut(chunk_len).enumerate() {
                        let base = ci * chunk_len;
                        let k4_chunk = &k4[base..base + chunk.len()];
                        // SAFETY: as above; K1–K3 span `dim`.
                        unsafe { combine(&k1, &k2, &k3, k4_chunk, c, base, chunk) };
                    }
                    assert_eq!(bits(&got), bits(&want), "combine {ctx}");
                }
            }
        }
    }

    /// The unfused scalar RK4 step, the oracle of the fused SIMD passes:
    /// every stage from the scalar loops, each written in full before the
    /// next reads it, with the per-element expressions of the fused passes.
    fn rk4_step_scalar(
        h: &RydbergHamiltonian,
        state: &mut StateVector,
        (omega, delta, phase): (f64, f64, f64),
        dt: f64,
    ) {
        let psi = &state.amps;
        let apply_h = |input: &[Complex64]| {
            let mut out = vec![ZERO; input.len()];
            apply_h_into_serial(h, input, omega, delta, phase, &mut out);
            out
        };
        let stage = |k: &[Complex64], c: Complex64| -> Vec<Complex64> {
            psi.iter().zip(k).map(|(&p, &k)| p + c * k).collect()
        };
        let k1 = apply_h(psi);
        let k2 = apply_h(&stage(&k1, Complex64::new(0.0, -dt / 2.0)));
        let k3 = apply_h(&stage(&k2, Complex64::new(0.0, -dt / 2.0)));
        let k4 = apply_h(&stage(&k3, Complex64::new(0.0, -dt)));
        let c = Complex64::new(0.0, -dt / 6.0);
        for (b, slot) in state.amps.iter_mut().enumerate() {
            *slot += c * (k1[b] + 2.0 * (k2[b] + k3[b]) + k4[b]);
        }
    }

    #[test]
    fn evolve_auto_and_scalar_kernels_bit_identical() {
        // Full-integrator parity: the SIMD hot passes must reproduce the
        // scalar evolution exactly, not approximately — the oracle walks the
        // grid `evolve_sequence_ws` steps, taken from the same function, over
        // segments of different step sizes.
        let mut b = SequenceBuilder::new(Register::linear(5, 7.0).unwrap());
        b.add_global_pulse(Pulse::constant(0.1234, 3.0, -1.5, 0.4).unwrap());
        let ramp = Waveform::composite(vec![
            Waveform::ramp(0.05, 0.0, 4.0).unwrap(),
            Waveform::constant(0.0321, 4.0).unwrap(),
        ])
        .unwrap();
        b.add_global_pulse(
            Pulse::new(ramp, Waveform::ramp(0.0821, -2.0, 2.0).unwrap(), 1.1).unwrap(),
        );
        let seq = b.build().unwrap();
        let cfg = SvConfig::default();
        let h = RydbergHamiltonian::new(&seq.register, C6_COEFF);
        let steps = cfg.grid(&seq, &h).steps;
        let mut dts: Vec<f64> = steps.iter().map(|s| s.0).collect();
        dts.dedup();
        assert_eq!(dts.len(), 3, "one step size per segment: {dts:?}");
        let mut scalar = StateVector::ground(h.n);
        for (dt, drive) in steps {
            rk4_step_scalar(&h, &mut scalar, drive, dt);
        }
        scalar.renormalize();
        let simd = evolve_sequence(&seq, C6_COEFF, &cfg);
        assert_eq!(bits(&simd.amps), bits(&scalar.amps));
    }

    #[test]
    #[should_panic(expected = "state dimension must match the Hamiltonian")]
    fn apply_h_into_rejects_mismatched_dimension() {
        // Regression: this used to be a debug_assert, so release builds
        // would read garbage diagonals instead of panicking.
        let reg = Register::linear(3, 7.0).unwrap();
        let h = RydbergHamiltonian::new(&reg, C6_COEFF);
        let psi = vec![ZERO; 16]; // 4-qubit state against a 3-qubit H
        let mut out = vec![ZERO; 16];
        apply_h_into(&h, &psi, 1.0, 0.0, 0.0, &mut out);
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        let mk_seq = |n: usize| {
            let reg = Register::linear(n, 8.0).unwrap();
            let mut b = SequenceBuilder::new(reg);
            b.add_global_pulse(Pulse::constant(0.2, 3.0, 0.5, 0.3).unwrap());
            b.build().unwrap()
        };
        let seq = mk_seq(4);
        let fresh = evolve_sequence(&seq, C6_COEFF, &SvConfig::default());
        let mut ws = SvWorkspace::new();
        let first = evolve_sequence_ws(&seq, C6_COEFF, &SvConfig::default(), &mut ws);
        let second = evolve_sequence_ws(&seq, C6_COEFF, &SvConfig::default(), &mut ws);
        assert_eq!(fresh.amps, first.amps, "workspace path diverges");
        assert_eq!(first.amps, second.amps, "dirty workspace leaks state");
        // Switching register size resizes the scratch without contamination.
        let small = mk_seq(3);
        let with_ws = evolve_sequence_ws(&small, C6_COEFF, &SvConfig::default(), &mut ws);
        let without = evolve_sequence(&small, C6_COEFF, &SvConfig::default());
        assert_eq!(with_ws.amps, without.amps);
    }

    #[test]
    fn rk4_step_compat_wrapper_matches_workspace_step() {
        let reg = Register::linear(3, 7.0).unwrap();
        let h = RydbergHamiltonian::new(&reg, C6_COEFF);
        let mut a = StateVector::ground(3);
        let mut b = StateVector::ground(3);
        let mut ws = SvWorkspace::new();
        for _ in 0..5 {
            rk4_step(&h, &mut a, 3.0, 1.0, 0.2, 1e-3);
            rk4_step_ws(&h, &mut b, 3.0, 1.0, 0.2, 1e-3, &mut ws);
        }
        assert_eq!(a.amps, b.amps);
    }

    #[test]
    #[should_panic(expected = "26 qubits")]
    fn ground_rejects_oversized_register() {
        StateVector::ground(SV_MAX_QUBITS + 1);
    }
}
