//! The emulator's one fork point.
//!
//! Every chunk-parallel pass in this crate — the three state-vector kernel
//! passes and shot sampling — goes through [`for_each_chunk`], which owns
//! two decisions: the partition of the output buffer and whether the
//! chunks run on forked threads or on the caller's.
//!
//! The partition is fixed: chunk `i` is `out[i·chunk_len .. (i+1)·chunk_len]`
//! (the last one may be short), whatever the machine, the worker count or
//! the arm taken. Every chunk is computed independently from read-only
//! inputs, so results are bit-identical on both arms and for any worker
//! count — the invariant the kernel and sampling parity tests pin.
//!
//! The fork decision is a cut-over per element kind, a constant set from
//! the measured break-even on the 2-core reference runner (EXPERIMENTS EV).
//! `shims/rayon` spawns scoped threads per pass, so below the cut-over the
//! spawn costs more than the second core returns; a persistent pool
//! (ROADMAP 3a) moves the break-even, and then these two constants are what
//! is to be re-measured.

use rayon::prelude::*;

/// Amplitudes per chunk of a state-vector pass.
pub(crate) const AMP_CHUNK: usize = 1 << 11;

/// A state-vector pass forks from this many amplitudes (18 qubits) up: the
/// smallest size at which the forked arm was ahead in at least nine of ten
/// alternating rounds. `evolve_sequence` on `emulator_perf`'s
/// `bench_sequence`, round medians in ms, forked vs sequential arm, 2 cores:
/// 12 q 95–102 vs 15–24; 14 q 169–212 vs 82–124; 16 q 439–593 vs 454–502
/// (ahead in 1 of 5 rounds); 17 q 871–1 212 vs 1 055–1 383 (7 of 10); 18 q
/// 1 625–2 059 vs 2 313–3 182 (5 of 5); 20 q 10 316–11 803 vs 14 230–15 774
/// (2 of 2).
pub(crate) const AMP_FORK_AT: usize = 1 << 18;

/// Shots per chunk of a sampling pass.
pub(crate) const SHOT_CHUNK: usize = 64;

/// A sampling pass forks from this many shots up, by the same rule.
/// `SvBackend::run_timed` `sample_ms` at 8 qubits, round medians in ms,
/// forked vs sequential arm, 26 alternating rounds up to 2^14 and 16 above:
/// 2^10 0.32–0.36 vs 0.17–0.19 (0 of 10); 2^12 0.44–0.93 vs 0.53–0.73 (12 of
/// 26); 2^14 1.4–3.1 vs 2.0–2.8 (14 of 26); 2^16 5.5–11.0 vs 8.2–11.0 (14 of
/// 16); 2^17 10.6–22.1 vs 16.1–21.8 (14 of 16); 2^18 20.7–40.9 vs 32.1–43.6
/// (15 of 16); 2^20 86–110 vs 131–174 (16 of 16). Below 2^18 the answer
/// depends on whether the second core is free at that moment.
pub(crate) const SHOT_FORK_AT: usize = 1 << 18;

/// Run `f(base, chunk)` over the fixed `chunk_len` partition of `out`,
/// `base` being the chunk's offset in `out`: forked when `out` holds at
/// least `fork_at` elements, on the calling thread otherwise.
pub(crate) fn for_each_chunk<T, F>(out: &mut [T], chunk_len: usize, fork_at: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    if out.len() >= fork_at {
        forked(out, chunk_len, f);
    } else {
        sequential(out, chunk_len, f);
    }
}

/// The forked arm: chunks spread over the machine's workers.
pub(crate) fn forked<T, F>(out: &mut [T], chunk_len: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    out.par_chunks_mut(chunk_len)
        .enumerate()
        .for_each(|(ci, chunk)| f(ci * chunk_len, chunk));
}

/// The sequential arm: the same chunks, in order, on the calling thread.
pub(crate) fn sequential<T, F>(out: &mut [T], chunk_len: usize, f: F)
where
    F: Fn(usize, &mut [T]),
{
    for (ci, chunk) in out.chunks_mut(chunk_len).enumerate() {
        f(ci * chunk_len, chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn both_arms_walk_the_same_partition() {
        // Each element records the (base, length) of the chunk it was handed
        // in: equal vectors mean chunk index → range is the same on both
        // arms, short tail chunk and empty buffer included.
        for (len, chunk_len) in [(0, 64), (1, 64), (64, 64), (1000, 64), (8192, 2048)] {
            let stamp = |base: usize, chunk: &mut [(usize, usize)]| {
                let n = chunk.len();
                chunk.fill((base, n));
            };
            let mut a = vec![(usize::MAX, 0); len];
            let mut b = a.clone();
            forked(&mut a, chunk_len, stamp);
            sequential(&mut b, chunk_len, stamp);
            assert_eq!(a, b, "len={len} chunk_len={chunk_len}");
            for (i, &(base, n)) in a.iter().enumerate() {
                assert_eq!(base, i / chunk_len * chunk_len);
                assert_eq!(n, chunk_len.min(len - base));
            }
        }
    }
}
