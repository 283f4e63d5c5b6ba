//! Experiment EP — emulator kernel performance trajectory.
//!
//! Times `evolve + sample` across qubit counts for both emulator backends,
//! plus one parameter sweep through `Runtime::run_sweep`, and writes the
//! results to `BENCH_emulator.json`. The 16-qubit state-vector case is the
//! headline single-program number.
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
//! `--quick` shrinks sizes/shots for the CI smoke job; the harness exits
//! non-zero if any timing comes back non-finite or non-positive, so a CI
//! run doubles as a panic/NaN gate for the kernels. The quick set still
//! includes the 20-qubit state-vector case — the one size in it whose
//! passes fork — and a small sweep.

use hpcqc_bench::{HarnessArgs, Report, Sample};
use hpcqc_core::Runtime;
use hpcqc_emulator::mps::evolve_sequence_mps;
use hpcqc_emulator::{Emulator, MpsBackend, MpsConfig, SvBackend, SweepPoint};
use hpcqc_program::{ProgramIr, Pulse, Register, Sequence, SequenceBuilder};
use hpcqc_qrmi::{QrmiConfig, ResourceFactory};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

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

fn phases(evolve_ms: f64, sample_ms: f64) -> Vec<Sample> {
    vec![
        ("evolve_ms", "ms", evolve_ms),
        ("sample_ms", "ms", sample_ms),
        ("total_ms", "ms", evolve_ms + sample_ms),
    ]
}

fn run_sv(n: usize, shots: u32) -> Vec<Sample> {
    let ir = ProgramIr::new(bench_sequence(n), shots, "bench");
    let (r, t) = SvBackend::default()
        .run_timed(&ir, 7)
        .expect("sv run succeeds");
    assert_eq!(r.shots, shots);
    phases(t.evolve_ms, t.sample_ms)
}

fn run_mps(n: usize, shots: u32, run: usize) -> Vec<Sample> {
    let backend = MpsBackend {
        config: MpsConfig {
            chi_max: 8,
            ..MpsConfig::default()
        },
        ..MpsBackend::default()
    };
    let seq = bench_sequence(n);
    // Same phase split as the sv path: evolve and sample timed back to back
    // on the same evolved state, so the split is monotone.
    let t0 = Instant::now();
    let mut mps = evolve_sequence_mps(&seq, backend.spec().c6_coefficient, &backend.config);
    let evolve_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(mps.truncation_error.is_finite());
    let t1 = Instant::now();
    mps.prepare_sampling();
    let mut rng = ChaCha8Rng::seed_from_u64(7 + run as u64);
    let mut acc = 0u64;
    for _ in 0..shots {
        acc ^= mps.sample_prepared(&mut rng);
    }
    std::hint::black_box(acc);
    phases(evolve_ms, t1.elapsed().as_secs_f64() * 1e3)
}

/// Returns the closure that times one `Runtime::run_sweep` over all points
/// — one lease, one ordinary task per point.
fn sweep_timer(n: usize, point_count: usize, shots: u32) -> impl FnMut(usize) -> Vec<Sample> {
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
    move |_| {
        let t = Instant::now();
        let reports = rt.run_sweep(&template, &points).expect("sweep succeeds");
        let ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(reports.len(), points.len());
        vec![("sweep_ms", "ms", ms)]
    }
}

fn main() {
    let args = HarnessArgs::from_env();
    let shots: u32 = if args.quick { 200 } else { 1000 };
    // The 20-qubit case stays in the quick set: CI must prove the largest
    // dense register completes, not just the small ones.
    let sv_sizes: &[usize] = if args.quick {
        &[8, 12, 20]
    } else {
        &[8, 12, 14, 16, 20]
    };
    let mps_sizes: &[usize] = if args.quick { &[8] } else { &[8, 12, 16] };
    let (sweep_qubits, sweep_points) = if args.quick { (8, 8) } else { (12, 32) };

    let mut report = Report::new("emulator_perf", &args);
    let params = |backend: &str, n: usize| serde_json::json!({ "backend": backend, "qubits": n, "shots": shots });
    for &n in sv_sizes {
        report.case(&format!("sv{n}"), params("emu-sv", n), |_| run_sv(n, shots));
    }
    for &n in mps_sizes {
        report.case(&format!("mps{n}"), params("emu-mps", n), |run| {
            run_mps(n, shots, run)
        });
    }
    report.case(
        &format!("sweep{sweep_points}x{sweep_qubits}q"),
        serde_json::json!({
            "backend": "emu-sv", "qubits": sweep_qubits, "points": sweep_points, "shots": shots
        }),
        sweep_timer(sweep_qubits, sweep_points, shots),
    );
    report.finish(&args.out_path("emulator"));
}
