//! Experiment EP — emulator kernel performance trajectory.
//!
//! Times `evolve + sample` across qubit counts for both emulator backends,
//! plus one parameter sweep through `Runtime::run_sweep`, and writes the
//! results to `BENCH_emulator.json`. The 16-qubit state-vector case is the
//! headline single-program number: the JSON records the measured time next
//! to the pre-PR baseline (commit b1b38e8, same harness, same machine class)
//! and the resulting speedup.
//!
//! Phase attribution comes from [`SvBackend::run_timed`]: both phases are
//! measured inside one instrumented run, so `total_ms = evolve_ms +
//! sample_ms` holds exactly. (An earlier revision min-timed a bare evolve
//! and a full run *independently* and subtracted; machine noise could land
//! the "total" below the "evolve", clamping the sample phase to 0.)
//!
//! Run: `cargo run --release -p hpcqc-bench --bin emulator_perf [--quick]
//!       [--out PATH]`
//!
//! `--quick` shrinks sizes/reps for the CI smoke job; the harness exits
//! non-zero if any timing comes back non-finite or non-positive, so a CI
//! run doubles as a panic/NaN gate for the kernels. The quick set still
//! includes the 20-qubit state-vector case (single rep) — the one size in
//! it whose passes fork — and a small sweep.

use hpcqc_bench::{render_table, HarnessArgs};
use hpcqc_core::Runtime;
use hpcqc_emulator::mps::evolve_sequence_mps;
use hpcqc_emulator::{Emulator, MpsBackend, MpsConfig, SvBackend, SvPhaseTimings, SweepPoint};
use hpcqc_program::{ProgramIr, Pulse, Register, Sequence, SequenceBuilder};
use hpcqc_qrmi::{QrmiConfig, ResourceFactory};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::Instant;

/// Pre-PR reference for the headline case, measured with this same harness
/// at commit b1b38e8 (allocating serial kernels): 16 qubits, emu-sv,
/// 0.2 µs constant pulse, 1000 shots. Milliseconds. Note the baseline's
/// phase split was produced by the old subtract-two-runs method; only its
/// `total_ms` is load-bearing for the speedup.
const PRE_PR_SV16_EVOLVE_MS: f64 = 5731.86;
const PRE_PR_SV16_TOTAL_MS: f64 = 5984.33;

#[derive(Debug, Serialize)]
struct CaseResult {
    backend: String,
    qubits: usize,
    shots: u32,
    reps: usize,
    /// Evolution wall-clock of the best rep (by total), milliseconds.
    evolve_ms: f64,
    /// Full run of the same rep: `evolve_ms + sample_ms` exactly, ms.
    total_ms: f64,
    /// Sampling + counting wall-clock of the same rep, ms.
    sample_ms: f64,
}

#[derive(Debug, Serialize)]
struct SweepCaseResult {
    backend: String,
    qubits: usize,
    points: usize,
    shots: u32,
    reps: usize,
    /// One `Runtime::run_sweep` over all points — one lease, one ordinary
    /// task per point — ms (best of reps).
    sweep_ms: f64,
}

#[derive(Debug, Serialize)]
struct BenchReport {
    benchmark: String,
    commit_note: String,
    quick: bool,
    unix_time_secs: u64,
    cases: Vec<CaseResult>,
    sweep: SweepCaseResult,
    baseline_pre_pr: Baseline,
    /// Measured speedup of the headline 16q sv case vs the pre-PR baseline
    /// (`baseline total / measured total`); `null` in quick mode, where the
    /// 16-qubit case is skipped.
    speedup_sv16_vs_pre_pr: Option<f64>,
}

#[derive(Debug, Serialize)]
struct Baseline {
    commit: String,
    sv16_evolve_ms: f64,
    sv16_total_ms: f64,
}

fn bench_sequence(n: usize) -> Sequence {
    let reg = Register::linear(n, 10.0).expect("valid linear register");
    let mut b = SequenceBuilder::new(reg);
    // Non-zero phase exercises the general (complex-coefficient) kernel.
    b.add_global_pulse(Pulse::constant(0.2, 4.0, 1.0, 0.4).expect("valid pulse"));
    b.build().expect("valid sequence")
}

/// A p=2 QAOA-style alternation of driver (Ω on) and cost (δ on) layers,
/// the template a parameter-sweep workload scales point by point.
fn qaoa_template(n: usize, shots: u32) -> ProgramIr {
    let reg = Register::linear(n, 10.0).expect("valid linear register");
    let mut b = SequenceBuilder::new(reg);
    for &(omega, delta, phase) in &[
        (4.0, 0.0, 0.0),
        (0.0, 3.0, 0.0),
        (4.0, 0.0, 0.8),
        (0.0, 3.0, 0.0),
    ] {
        b.add_global_pulse(Pulse::constant(0.1, omega, delta, phase).expect("valid pulse"));
    }
    ProgramIr::new(b.build().expect("valid sequence"), shots, "bench-sweep")
}

fn sweep_grid(count: usize) -> Vec<SweepPoint> {
    (0..count)
        .map(|k| {
            let f = k as f64 / count.max(2) as f64;
            SweepPoint {
                omega_scale: 0.75 + 0.5 * f,
                delta_scale: 0.8 + 0.4 * f,
                phase_offset: 0.05 * k as f64,
            }
        })
        .collect()
}

fn run_sv_case(n: usize, shots: u32, reps: usize) -> CaseResult {
    let backend = SvBackend::default();
    let ir = ProgramIr::new(bench_sequence(n), shots, "bench");
    let mut best: Option<SvPhaseTimings> = None;
    for _ in 0..reps {
        let (r, t) = backend.run_timed(&ir, 7).expect("sv run succeeds");
        assert_eq!(r.shots, shots);
        if best.is_none_or(|b| t.total_ms < b.total_ms) {
            best = Some(t);
        }
    }
    let t = best.expect("at least one rep");
    CaseResult {
        backend: "emu-sv".into(),
        qubits: n,
        shots,
        reps,
        evolve_ms: t.evolve_ms,
        total_ms: t.total_ms,
        sample_ms: t.sample_ms,
    }
}

fn run_mps_case(n: usize, shots: u32, reps: usize) -> CaseResult {
    let backend = MpsBackend {
        config: MpsConfig {
            chi_max: 8,
            ..MpsConfig::default()
        },
        ..MpsBackend::default()
    };
    let seq = bench_sequence(n);
    let spec = backend.spec();
    // Same single-rep phase split as the sv path: evolve and sample timed
    // back to back on the same evolved state, so the split is monotone.
    let mut best: Option<(f64, f64)> = None;
    for rep in 0..reps {
        let t0 = Instant::now();
        let mut mps = evolve_sequence_mps(&seq, spec.c6_coefficient, &backend.config);
        let evolve_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(mps.truncation_error.is_finite());
        let t1 = Instant::now();
        mps.prepare_sampling();
        let mut rng = ChaCha8Rng::seed_from_u64(7 + rep as u64);
        let mut acc = 0u64;
        for _ in 0..shots {
            acc ^= mps.sample_prepared(&mut rng);
        }
        std::hint::black_box(acc);
        let sample_ms = t1.elapsed().as_secs_f64() * 1e3;
        if best.is_none_or(|(e, s)| evolve_ms + sample_ms < e + s) {
            best = Some((evolve_ms, sample_ms));
        }
    }
    let (evolve_ms, sample_ms) = best.expect("at least one rep");
    CaseResult {
        backend: "emu-mps".into(),
        qubits: n,
        shots,
        reps,
        evolve_ms,
        total_ms: evolve_ms + sample_ms,
        sample_ms,
    }
}

fn sweep_case(n: usize, point_count: usize, shots: u32, reps: usize) -> SweepCaseResult {
    const SEED: u64 = 7;
    // The zero-setup development runtime: `emu-local` over `SvBackend`, a
    // fresh one handing task `k` the seed `SEED + k`.
    let runtime = || {
        let registry = ResourceFactory::new(SEED)
            .build_registry(&QrmiConfig::development_default())
            .expect("development registry builds");
        Runtime::new(registry)
    };
    let template = qaoa_template(n, shots);
    let points = sweep_grid(point_count);

    // Correctness gate before any timing: the sweep must return what
    // independent runs of each materialized point return, seed for seed.
    let swept = runtime()
        .run_sweep(&template, &points)
        .expect("sweep succeeds");
    for (k, p) in points.iter().enumerate() {
        let mut ir = template.clone();
        ir.sequence = p.materialize(&template.sequence);
        let solo = SvBackend::default()
            .run(&ir, SEED + k as u64)
            .expect("run succeeds");
        assert_eq!(swept[k].result, solo, "sweep/run divergence at point {k}");
    }

    let rt = runtime();
    let sweep_ms = (0..reps)
        .map(|_| {
            let t = Instant::now();
            let reports = rt.run_sweep(&template, &points).expect("sweep succeeds");
            let ms = t.elapsed().as_secs_f64() * 1e3;
            assert_eq!(reports.len(), points.len());
            ms
        })
        .fold(f64::INFINITY, f64::min);
    SweepCaseResult {
        backend: "emu-sv".into(),
        qubits: n,
        points: point_count,
        shots,
        reps,
        sweep_ms,
    }
}

fn main() {
    let args = HarnessArgs::from_env();
    let out_path = args
        .flags
        .iter()
        .position(|f| f == "--out")
        .and_then(|i| args.flags.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_emulator.json".to_string());

    let shots: u32 = if args.quick { 200 } else { 1000 };
    let reps = args.scaled(3, 1);
    // The 20-qubit case stays in the quick set (one rep): CI must prove the
    // largest dense register completes, not just the small ones.
    let sv_sizes: &[usize] = if args.quick {
        &[8, 12, 20]
    } else {
        &[8, 12, 14, 16, 20]
    };
    let mps_sizes: &[usize] = if args.quick { &[8] } else { &[8, 12, 16] };
    let (sweep_qubits, sweep_points) = if args.quick { (8, 8) } else { (12, 32) };

    let mut cases = Vec::new();
    for &n in sv_sizes {
        eprintln!("timing emu-sv n={n} ...");
        cases.push(run_sv_case(n, shots, reps));
    }
    for &n in mps_sizes {
        eprintln!("timing emu-mps n={n} ...");
        cases.push(run_mps_case(n, shots, reps));
    }
    eprintln!("timing emu-sv sweep n={sweep_qubits} points={sweep_points} ...");
    let sweep = sweep_case(sweep_qubits, sweep_points, shots, reps);

    // Gate: every timing must be finite and positive (a panic would have
    // aborted already; NaN/0 indicates a broken clock or kernel). The
    // sample phase is directly measured now, so it gets the same `> 0`
    // check as the others — no exemption.
    let mut gate_failures = 0usize;
    let mut gate = |what: String, v: f64| {
        if !v.is_finite() || v <= 0.0 {
            eprintln!("non-finite or non-positive timing: {what}={v}");
            gate_failures += 1;
        }
    };
    for c in &cases {
        for (label, v) in [
            ("evolve_ms", c.evolve_ms),
            ("total_ms", c.total_ms),
            ("sample_ms", c.sample_ms),
        ] {
            gate(format!("{} n={} {label}", c.backend, c.qubits), v);
        }
    }
    gate(format!("sweep n={} sweep_ms", sweep.qubits), sweep.sweep_ms);
    if gate_failures > 0 {
        eprintln!("{gate_failures} timing gate failure(s)");
        std::process::exit(1);
    }

    let speedup = cases
        .iter()
        .find(|c| c.backend == "emu-sv" && c.qubits == 16)
        .map(|c| PRE_PR_SV16_TOTAL_MS / c.total_ms);

    let rows: Vec<Vec<String>> = cases
        .iter()
        .map(|c| {
            vec![
                c.backend.clone(),
                c.qubits.to_string(),
                format!("{:.2}", c.evolve_ms),
                format!("{:.2}", c.sample_ms),
                format!("{:.2}", c.total_ms),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["backend", "qubits", "evolve(ms)", "sample(ms)", "total(ms)"],
            &rows
        )
    );
    println!(
        "sweep {}x{}q: {:.2} ms",
        sweep.points, sweep.qubits, sweep.sweep_ms
    );
    if let Some(s) = speedup {
        println!("sv16 total vs pre-PR baseline {PRE_PR_SV16_TOTAL_MS:.2} ms: {s:.2}x");
    }

    let report = BenchReport {
        benchmark: "emulator_perf".into(),
        commit_note: "SIMD kernels forking from 18 qubits up; a sweep is Runtime::run_sweep, one \
                      ordinary task per point"
            .into(),
        quick: args.quick,
        unix_time_secs: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        cases,
        sweep,
        baseline_pre_pr: Baseline {
            commit: "b1b38e8".into(),
            sv16_evolve_ms: PRE_PR_SV16_EVOLVE_MS,
            sv16_total_ms: PRE_PR_SV16_TOTAL_MS,
        },
        speedup_sv16_vs_pre_pr: speedup,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write(&out_path, json + "\n").expect("write benchmark json");
    eprintln!("wrote {out_path}");
}
