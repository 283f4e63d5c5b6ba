//! Experiment EP — emulator kernel performance trajectory.
//!
//! Times `evolve + sample` across qubit counts for both emulator backends,
//! plus one parameter sweep through `Runtime::run_sweep`, and writes the
//! results to `BENCH_emulator.json`. The 16-qubit state-vector case is the
//! headline single-program number.
//!
//! The `converge` cases are the integrator's error budget: per program, size
//! and `stability_factor`, the TV distance to a converged reference (factor
//! 0.01), steps and `evolve_ms`; also `MpsBackend`'s default TEBD. The run
//! fails if the default factor is off by more than [`TV_BUDGET`] anywhere.
//!
//! Phase attribution comes from [`SvBackend::run_timed`]: both phases are
//! timed inside one run, so `total_ms = evolve_ms + sample_ms` holds exactly.
//!
//! Run: `cargo run --release -p hpcqc-bench --bin emulator_perf [--quick]
//!       [--out PATH]`
//!
//! `--quick` shrinks sizes/shots for the CI smoke job; the harness exits
//! non-zero if any timing comes back non-finite or non-positive, so a CI
//! run doubles as a panic/NaN gate for the kernels. The quick set still
//! includes the 20-qubit state-vector case — the one size in it whose
//! passes fork — a small sweep, and every `converge` row.

use hpcqc_bench::{Claim, HarnessArgs, Report, Sample};
use hpcqc_core::Runtime;
use hpcqc_emulator::mps::evolve_sequence_mps;
use hpcqc_emulator::{evolve_sequence, DiscretizedDrive, Emulator, MpsBackend, MpsConfig};
use hpcqc_emulator::{RydbergHamiltonian, SvBackend, SvConfig, SweepPoint};
use hpcqc_program::units::C6_COEFF;
use hpcqc_program::{
    ProgramError, ProgramIr, Pulse, Register, Sequence, SequenceBuilder, Waveform,
};
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

/// The most TV distance the default `stability_factor` may leave on a
/// `converge` row: two orders below 10 000 shots' noise floor.
const TV_BUDGET: f64 = 1e-4;

/// `e2e_perf`'s program shape: four 0.1 µs constant layers, the first two at
/// the schedule's peak drive; or, with `ramp`, an adiabatic sweep of the
/// same peaks whose Ω and δ are composites with different part boundaries.
fn converge_sequence(ramp: bool, n: usize) -> Result<Sequence, ProgramError> {
    let mut b = SequenceBuilder::new(Register::linear(n, 10.0)?);
    let (line, flat) = (Waveform::ramp, Waveform::constant);
    if ramp {
        let rise = Waveform::composite(vec![line(0.1, 0.0, 5.0)?, flat(0.1, 5.0)?])?;
        let ease = Waveform::composite(vec![flat(0.05, 4.0)?, line(0.15, 4.0, 3.0)?])?;
        b.add_global_pulse(Pulse::new(rise, line(0.2, -4.0, 4.0)?, 0.0)?);
        b.add_global_pulse(Pulse::new(line(0.2, 4.0, 0.0)?, ease, 0.6)?);
    } else {
        // The fixed first driver/cost layers, then one draw of the second.
        let second = [(4.0, 0.0, 0.6), (0.0, 3.0, 0.0)];
        for (o, d, p) in [(5.0, 0.0, 0.0), (0.0, 4.0, 0.0)].into_iter().chain(second) {
            b.add_global_pulse(Pulse::constant(0.1, o, d, p)?);
        }
    }
    b.build()
}

/// One `converge` run: TV distance to `reference`, steps, evolve time.
fn converge_run(steps: f64, reference: &[f64], evolve: impl Fn() -> Vec<f64>) -> Vec<Sample> {
    let t = Instant::now();
    let probs = evolve();
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let gaps = probs.iter().zip(reference).map(|(a, b)| (a - b).abs());
    let tv = gaps.sum::<f64>() / 2.0;
    let metrics = [
        ("tv", "ratio", tv),
        ("steps", "count", steps),
        ("evolve_ms", "ms", ms),
    ];
    metrics.to_vec()
}

/// The `converge` rows: every factor (the default is one of them) on
/// every program and size, then MPS's default TEBD on each; and the claim
/// that the default stays within [`TV_BUDGET`] on every row.
fn converge(report: &mut Report, sizes: &[usize]) {
    let cfg = |stability_factor| SvConfig { stability_factor };
    let default = SvConfig::default().stability_factor;
    let factors = [0.3, 0.6, 1.2, 1.8, 2.4];
    assert!(factors.contains(&default), "default {default} not a row");
    let mut worst = 0.0f64;
    for (program, ramp) in [("const", false), ("ramp", true)] {
        for &n in sizes {
            let seq = &converge_sequence(ramp, n).expect("valid program");
            let sv = |factor| move || evolve_sequence(seq, C6_COEFF, &cfg(factor)).probabilities();
            let reference = sv(0.01)();
            let h = RydbergHamiltonian::new(&seq.register, C6_COEFF);
            for &factor in &factors {
                let steps = cfg(factor).grid(seq, &h).steps.len() as f64;
                let name = format!("converge {program} {n}q f{factor}");
                let params = serde_json::json!({ "backend": "emu-sv", "program": program,
                    "qubits": n, "stability_factor": factor, "default": factor == default });
                report.case(&name, params, |_| {
                    let run = converge_run(steps, &reference, sv(factor));
                    if factor == default {
                        worst = worst.max(run[0].2);
                    }
                    run
                });
            }
            let mps = MpsConfig::default();
            let steps = DiscretizedDrive::aligned(seq, mps.max_dt).steps.len() as f64;
            let params = serde_json::json!({ "backend": "emu-mps", "program": program,
                "qubits": n, "chi_max": mps.chi_max });
            report.case(&format!("converge {program} {n}q mps"), params, |_| {
                converge_run(steps, &reference, || {
                    let amps = evolve_sequence_mps(seq, C6_COEFF, &mps).to_statevector();
                    amps.iter().map(|a| a.norm_sqr()).collect()
                })
            });
        }
    }
    report.claims.push(Claim::new(
        &format!("converge: stability_factor {default} (the default) is within {TV_BUDGET} TV of the converged distribution on every row"),
        worst <= TV_BUDGET,
        format!("max TV {worst:.2e}"),
    ));
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
    converge(&mut report, &[4, 8, 12]);
    report.finish(&args.out_path("emulator"));
}
