//! Table-1 workload generators.
//!
//! Seeded generators producing hybrid-job populations matching the paper's
//! taxonomy (Table 1): pattern A (High-QC / Low-CC), pattern B
//! (Low-QC / High-CC), pattern C (balanced), and mixed populations. These
//! feed both the middleware co-simulation (Table-1/Figure-2 experiments) and
//! the batch-scheduler simulator.

use hpcqc_scheduler::{HybridJob, JobSpec, PatternHint, Phase, PriorityClass};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// The three taxonomy rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Pattern {
    /// A: dominant quantum load, minor classical pre/post processing.
    A,
    /// B: sparse quantum load, heavy classical load.
    B,
    /// C: comparable loads, fine-grained alternation.
    C,
}

impl Pattern {
    /// The scheduler hint a job of this pattern carries.
    pub fn hint(&self) -> PatternHint {
        match self {
            Pattern::A => PatternHint::QcHeavy,
            Pattern::B => PatternHint::CcHeavy,
            Pattern::C => PatternHint::QcBalanced,
        }
    }

    /// Nominal QPU duty ratio of the pattern.
    pub fn duty(&self) -> f64 {
        match self {
            Pattern::A => 0.9,
            Pattern::B => 0.1,
            Pattern::C => 0.5,
        }
    }
}

/// Generator parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PatternGenConfig {
    /// Mean total work (quantum + classical) per job, seconds.
    pub mean_total_secs: f64,
    /// Number of QC/CC alternations: A gets 1 quantum block, B gets 1,
    /// C gets this many fine-grained rounds.
    pub balanced_rounds: usize,
    /// Nodes requested per job.
    pub nodes: u32,
    /// Mean inter-arrival time, seconds (exponential); 0 = all at t=0.
    pub mean_interarrival_secs: f64,
}

impl Default for PatternGenConfig {
    fn default() -> Self {
        PatternGenConfig {
            mean_total_secs: 600.0,
            balanced_rounds: 6,
            nodes: 1,
            mean_interarrival_secs: 60.0,
        }
    }
}

fn exp_sample<R: Rng>(rng: &mut R, mean: f64) -> f64 {
    if mean <= 0.0 {
        return 0.0;
    }
    let u: f64 = rng.gen::<f64>().max(1e-12);
    -mean * u.ln()
}

/// Jittered total around the configured mean (±30 %).
fn jittered_total<R: Rng>(rng: &mut R, cfg: &PatternGenConfig) -> f64 {
    cfg.mean_total_secs * (0.7 + 0.6 * rng.gen::<f64>())
}

/// Generate one job of `pattern`.
pub fn generate_job<R: Rng>(
    id: u64,
    pattern: Pattern,
    class: PriorityClass,
    arrival: f64,
    cfg: &PatternGenConfig,
    rng: &mut R,
) -> HybridJob {
    let total = jittered_total(rng, cfg);
    let q_total = total * pattern.duty();
    let c_total = total - q_total;
    let phases = match pattern {
        // A: small classical prologue, one big quantum block, small epilogue
        Pattern::A => vec![
            Phase::Classical(c_total / 2.0),
            Phase::Quantum(q_total),
            Phase::Classical(c_total / 2.0),
        ],
        // B: one short quantum seed, then heavy classical post-processing
        Pattern::B => vec![
            Phase::Classical(c_total * 0.1),
            Phase::Quantum(q_total),
            Phase::Classical(c_total * 0.9),
        ],
        // C: fine-grained alternation (variational loop shape)
        Pattern::C => {
            let rounds = cfg.balanced_rounds.max(1);
            let (qr, cr) = (q_total / rounds as f64, c_total / rounds as f64);
            let mut v = Vec::with_capacity(2 * rounds);
            for _ in 0..rounds {
                v.push(Phase::Classical(cr));
                v.push(Phase::Quantum(qr));
            }
            v
        }
    };
    HybridJob {
        id,
        class,
        hint: pattern.hint(),
        nodes: cfg.nodes,
        phases,
        arrival,
    }
}

/// Generate a seeded population with the given pattern mix
/// (`mix` = fractions for A, B, C; normalized internally) and class mix of
/// 20 % production / 30 % test / 50 % development.
pub fn generate_population(
    count: usize,
    mix: (f64, f64, f64),
    cfg: &PatternGenConfig,
    seed: u64,
) -> Vec<HybridJob> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let total_mix = (mix.0 + mix.1 + mix.2).max(1e-12);
    let (pa, pb) = (mix.0 / total_mix, mix.1 / total_mix);
    let mut arrival = 0.0;
    (0..count as u64)
        .map(|id| {
            let r: f64 = rng.gen();
            let pattern = if r < pa {
                Pattern::A
            } else if r < pa + pb {
                Pattern::B
            } else {
                Pattern::C
            };
            let rc: f64 = rng.gen();
            let class = if rc < 0.2 {
                PriorityClass::Production
            } else if rc < 0.5 {
                PriorityClass::Test
            } else {
                PriorityClass::Development
            };
            arrival += exp_sample(&mut rng, cfg.mean_interarrival_secs);
            generate_job(id, pattern, class, arrival, cfg, &mut rng)
        })
        .collect()
}

/// Convert a hybrid job into the batch-scheduler job spec it would submit
/// (wall time = total work with 50 % margin, partition from its class,
/// hint forwarded, QPU GRES units proportional to its duty per §3.5).
pub fn to_batch_spec(job: &HybridJob, gres_pool: u32) -> JobSpec {
    let total = job.qpu_secs() + job.classical_secs();
    let gres_units = ((job.duty() * gres_pool as f64).ceil() as u32).clamp(1, gres_pool);
    JobSpec {
        name: format!("hybrid-{}", job.id),
        user: format!("user{}", job.id % 7),
        partition: job.class.partition().to_string(),
        nodes: job.nodes,
        gres: [("qpu".to_string(), gres_units)].into(),
        licenses: Default::default(),
        time_limit_secs: total * 1.5,
        actual_runtime_secs: total,
        hint: job.hint,
        expected_qpu_secs: Some(job.qpu_secs()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_duties_ordered() {
        assert!(Pattern::A.duty() > Pattern::C.duty());
        assert!(Pattern::C.duty() > Pattern::B.duty());
        assert_eq!(Pattern::A.hint(), PatternHint::QcHeavy);
        assert_eq!(Pattern::B.hint(), PatternHint::CcHeavy);
        assert_eq!(Pattern::C.hint(), PatternHint::QcBalanced);
    }

    #[test]
    fn generated_jobs_match_pattern_duty() {
        let cfg = PatternGenConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for (pattern, lo, hi) in [
            (Pattern::A, 0.85, 0.95),
            (Pattern::B, 0.05, 0.15),
            (Pattern::C, 0.45, 0.55),
        ] {
            let j = generate_job(1, pattern, PriorityClass::Test, 0.0, &cfg, &mut rng);
            let d = j.duty();
            assert!(d >= lo && d <= hi, "{pattern:?}: duty {d}");
        }
    }

    #[test]
    fn balanced_jobs_alternate_finely() {
        let cfg = PatternGenConfig {
            balanced_rounds: 5,
            ..PatternGenConfig::default()
        };
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let j = generate_job(1, Pattern::C, PriorityClass::Test, 0.0, &cfg, &mut rng);
        assert_eq!(j.phases.len(), 10);
        let quantum_blocks = j
            .phases
            .iter()
            .filter(|p| matches!(p, Phase::Quantum(_)))
            .count();
        assert_eq!(quantum_blocks, 5);
    }

    #[test]
    fn population_is_seeded_and_mixed() {
        let cfg = PatternGenConfig::default();
        let a = generate_population(100, (1.0, 1.0, 1.0), &cfg, 42);
        let b = generate_population(100, (1.0, 1.0, 1.0), &cfg, 42);
        assert_eq!(a, b, "same seed, same population");
        let c = generate_population(100, (1.0, 1.0, 1.0), &cfg, 43);
        assert_ne!(a, c, "different seed differs");
        // mix covers all three hints
        let hints: std::collections::HashSet<_> = a.iter().map(|j| j.hint).collect();
        assert_eq!(hints.len(), 3);
        // arrivals increase
        for w in a.windows(2) {
            assert!(w[1].arrival >= w[0].arrival);
        }
        // all classes present
        let classes: std::collections::HashSet<_> = a.iter().map(|j| j.class).collect();
        assert_eq!(classes.len(), 3);
    }

    #[test]
    fn pure_mix_produces_single_pattern() {
        let cfg = PatternGenConfig::default();
        let pop = generate_population(50, (1.0, 0.0, 0.0), &cfg, 7);
        assert!(pop.iter().all(|j| j.hint == PatternHint::QcHeavy));
    }

    #[test]
    fn batch_spec_scales_gres_with_duty() {
        let cfg = PatternGenConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let a = generate_job(
            1,
            Pattern::A,
            PriorityClass::Production,
            0.0,
            &cfg,
            &mut rng,
        );
        let b = generate_job(
            2,
            Pattern::B,
            PriorityClass::Development,
            0.0,
            &cfg,
            &mut rng,
        );
        let sa = to_batch_spec(&a, 10);
        let sb = to_batch_spec(&b, 10);
        assert!(sa.gres["qpu"] > sb.gres["qpu"]);
        assert!(sa.gres["qpu"] <= 10);
        assert!(sb.gres["qpu"] >= 1);
        assert_eq!(sa.partition, "production");
        assert_eq!(sb.partition, "development");
        assert!(sa.time_limit_secs > sa.actual_runtime_secs);
        assert_eq!(sa.expected_qpu_secs, Some(a.qpu_secs()));
    }
}
