//! Hybrid execution helper: the iterative quantum-classical loop.
//!
//! The generic evaluate-update-repeat loop that variational algorithms
//! instantiate (parameter sweeps are [`Runtime::run_sweep`]). The loop is
//! backend-agnostic — the runtime decides whether evaluations hit an
//! emulator or the QPU — which is precisely how a workflow moves from
//! development to production without code changes (Figure 1).

use crate::runtime::{Runtime, RuntimeError};
use hpcqc_program::ProgramIr;

/// Outcome of one iteration of a hybrid loop.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    pub iteration: usize,
    pub params: Vec<f64>,
    pub cost: f64,
}

/// Result of a full hybrid loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopResult {
    /// Per-iteration history.
    pub history: Vec<IterationRecord>,
    /// Best parameters seen.
    pub best_params: Vec<f64>,
    /// Best cost seen.
    pub best_cost: f64,
}

/// Drive an iterative hybrid loop:
///
/// * `build` maps parameters to a program,
/// * the runtime executes it,
/// * `cost` scores the samples,
/// * `update` proposes the next parameters from the history (the classical
///   optimizer step — e.g. SPSA or Nelder–Mead from `hpcqc-workloads`).
///
/// Stops after `max_iterations` or when `update` returns `None`.
pub fn iterate<B, C, U>(
    rt: &Runtime,
    initial: Vec<f64>,
    max_iterations: usize,
    mut build: B,
    mut cost: C,
    mut update: U,
) -> Result<LoopResult, RuntimeError>
where
    B: FnMut(&[f64]) -> ProgramIr,
    C: FnMut(&hpcqc_emulator::SampleResult) -> f64,
    U: FnMut(&[IterationRecord]) -> Option<Vec<f64>>,
{
    let mut history: Vec<IterationRecord> = Vec::new();
    let mut params = initial;
    for iteration in 0..max_iterations {
        let program = build(&params);
        let report = rt.run(&program)?;
        let c = cost(&report.result);
        history.push(IterationRecord {
            iteration,
            params: params.clone(),
            cost: c,
        });
        match update(&history) {
            Some(next) => params = next,
            None => break,
        }
    }
    let best = history
        .iter()
        .min_by(|a, b| a.cost.partial_cmp(&b.cost).expect("finite costs"))
        .cloned()
        .expect("at least one iteration ran");
    Ok(LoopResult {
        best_params: best.params,
        best_cost: best.cost,
        history,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_program::{Pulse, Register, SequenceBuilder};
    use hpcqc_qrmi::{QrmiConfig, ResourceFactory};

    fn runtime() -> Runtime {
        let reg = ResourceFactory::new(1)
            .build_registry(&QrmiConfig::development_default())
            .unwrap();
        Runtime::new(reg)
    }

    fn program(duration: f64) -> ProgramIr {
        let reg = Register::from_coords(&[(0.0, 0.0)]).unwrap();
        let mut b = SequenceBuilder::new(reg);
        b.add_global_pulse(Pulse::constant(duration, 4.0, 0.0, 0.0).unwrap());
        ProgramIr::new(b.build().unwrap(), 2000, "hybrid-test")
    }

    #[test]
    fn iterate_minimizes_pulse_duration_to_pi() {
        // cost = 1 - P(rydberg): minimized by the π-pulse duration π/Ω ≈ 0.785.
        // coarse grid-descent update: move in the improving direction.
        let rt = runtime();
        let step = 0.05;
        let result = iterate(
            &rt,
            vec![0.3],
            25,
            |p| program(p[0].clamp(0.05, 2.0)),
            |res| 1.0 - res.occupation(0),
            |hist| {
                let last = hist.last().expect("non-empty");
                if hist.len() >= 2 {
                    let prev = &hist[hist.len() - 2];
                    if last.cost > prev.cost + 1e-3 {
                        return None; // got worse: stop (passed the optimum)
                    }
                }
                Some(vec![last.params[0] + step])
            },
        )
        .unwrap();
        let pi_over_omega = std::f64::consts::PI / 4.0;
        assert!(
            (result.best_params[0] - pi_over_omega).abs() < 0.1,
            "best duration {} vs π/Ω {pi_over_omega}",
            result.best_params[0]
        );
        assert!(result.best_cost < 0.05);
        assert!(result.history.len() >= 5);
    }

    #[test]
    fn iterate_stops_when_update_returns_none() {
        let rt = runtime();
        let result = iterate(&rt, vec![0.5], 100, |p| program(p[0]), |_| 0.0, |_| None).unwrap();
        assert_eq!(result.history.len(), 1);
    }

    #[test]
    fn iterate_propagates_backend_errors() {
        let rt = runtime().with_qpu("ghost");
        let r = iterate(&rt, vec![0.5], 5, |p| program(p[0]), |_| 0.0, |_| None);
        assert!(matches!(r, Err(RuntimeError::Config(_))));
    }
}
