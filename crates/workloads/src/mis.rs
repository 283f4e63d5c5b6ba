//! Maximum Independent Set (MIS) on unit-disk graphs — the canonical
//! neutral-atom hybrid workload.
//!
//! Atoms placed at graph vertices with the blockade radius tuned to the
//! graph's unit-disk radius make independent sets the low-energy
//! configurations of the Rydberg Hamiltonian: an adiabatic detuning sweep
//! prepares them, and a classical optimizer tunes the sweep parameters —
//! the hybrid loop the paper's runtime exists to serve.

use hpcqc_core::{Runtime, RuntimeError};
use hpcqc_emulator::{SampleResult, SweepPoint};
use hpcqc_program::{ProgramIr, Pulse, Register, SequenceBuilder, Waveform};
use serde::{Deserialize, Serialize};

/// An undirected graph on register sites.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    pub n: usize,
    /// Edges as (i, j) with i < j.
    pub edges: Vec<(usize, usize)>,
}

impl Graph {
    /// The unit-disk graph of a register: vertices are atoms, edges connect
    /// pairs closer than `radius` µm.
    pub fn unit_disk(register: &Register, radius: f64) -> Self {
        let edges = register
            .pairs()
            .into_iter()
            .filter(|&(_, _, d)| d < radius)
            .map(|(i, j, _)| (i, j))
            .collect();
        Graph {
            n: register.len(),
            edges,
        }
    }

    /// Is `set` (bitmask) an independent set?
    pub fn is_independent(&self, set: u64) -> bool {
        self.edges
            .iter()
            .all(|&(i, j)| !((set >> i) & 1 == 1 && (set >> j) & 1 == 1))
    }

    /// Number of edges violated by `set`.
    pub fn violations(&self, set: u64) -> usize {
        self.edges
            .iter()
            .filter(|&&(i, j)| (set >> i) & 1 == 1 && (set >> j) & 1 == 1)
            .count()
    }

    /// Exact MIS size by branch and bound (exponential; for ≤ ~30 vertices,
    /// used as ground truth in experiments).
    pub fn exact_mis_size(&self) -> usize {
        assert!(self.n <= 30, "exact MIS limited to 30 vertices");
        // adjacency masks
        let mut adj = vec![0u64; self.n];
        for &(i, j) in &self.edges {
            adj[i] |= 1 << j;
            adj[j] |= 1 << i;
        }
        fn bb(candidates: u64, current: usize, best: &mut usize, adj: &[u64]) {
            if current + (candidates.count_ones() as usize) <= *best {
                return; // bound
            }
            if candidates == 0 {
                *best = (*best).max(current);
                return;
            }
            let v = candidates.trailing_zeros() as usize;
            // branch 1: include v
            let without_nbrs = candidates & !(1u64 << v) & !adj[v];
            bb(without_nbrs, current + 1, best, adj);
            // branch 2: exclude v
            bb(candidates & !(1u64 << v), current, best, adj);
        }
        let mut best = 0;
        bb((1u64 << self.n) - 1, 0, &mut best, &adj);
        best
    }
}

/// Parameters of the adiabatic MIS sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MisSweep {
    /// Total sweep duration, µs.
    pub duration: f64,
    /// Peak Rabi frequency, rad/µs.
    pub omega_max: f64,
    /// Initial (negative) detuning, rad/µs.
    pub delta_start: f64,
    /// Final (positive) detuning, rad/µs.
    pub delta_end: f64,
}

impl Default for MisSweep {
    fn default() -> Self {
        MisSweep {
            duration: 4.0,
            omega_max: 6.0,
            delta_start: -12.0,
            delta_end: 12.0,
        }
    }
}

/// Build the MIS program for a register.
pub fn mis_program(register: &Register, sweep: &MisSweep, shots: u32) -> ProgramIr {
    let quarter = sweep.duration / 4.0;
    let half = sweep.duration / 2.0;
    let mut b = SequenceBuilder::new(register.clone());
    b.add_global_pulse(
        Pulse::new(
            Waveform::ramp(quarter, 0.0, sweep.omega_max).expect("valid ramp"),
            Waveform::constant(quarter, sweep.delta_start).expect("valid constant"),
            0.0,
        )
        .expect("matched durations"),
    );
    b.add_global_pulse(
        Pulse::new(
            Waveform::constant(half, sweep.omega_max).expect("valid constant"),
            Waveform::ramp(half, sweep.delta_start, sweep.delta_end).expect("valid ramp"),
            0.0,
        )
        .expect("matched durations"),
    );
    b.add_global_pulse(
        Pulse::new(
            Waveform::ramp(quarter, sweep.omega_max, 0.0).expect("valid ramp"),
            Waveform::constant(quarter, sweep.delta_end).expect("valid constant"),
            0.0,
        )
        .expect("matched durations"),
    );
    ProgramIr::new(b.build().expect("three pulses"), shots, "mis-workload")
}

/// Score samples against the MIS objective: the expected independent-set
/// size after *classically repairing* violations (greedily dropping one
/// endpoint of each violated edge), plus diagnostics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MisScore {
    /// Mean repaired independent-set size.
    pub mean_set_size: f64,
    /// Largest independent set observed (after repair).
    pub best_set_size: usize,
    /// The best set itself (bitmask).
    pub best_set: u64,
    /// Fraction of raw shots that were already independent.
    pub valid_fraction: f64,
}

/// Greedy repair: drop the higher-degree endpoint of each violated edge.
pub fn repair(graph: &Graph, mut set: u64) -> u64 {
    let mut degree = vec![0usize; graph.n];
    for &(i, j) in &graph.edges {
        degree[i] += 1;
        degree[j] += 1;
    }
    loop {
        let mut worst: Option<usize> = None;
        for &(i, j) in &graph.edges {
            if (set >> i) & 1 == 1 && (set >> j) & 1 == 1 {
                let v = if degree[i] >= degree[j] { i } else { j };
                worst = Some(v);
                break;
            }
        }
        match worst {
            Some(v) => set &= !(1u64 << v),
            None => return set,
        }
    }
}

/// Score a sample result against the MIS objective.
pub fn score(graph: &Graph, result: &SampleResult) -> MisScore {
    let mut total = 0.0f64;
    let mut valid = 0u64;
    let mut best_set = 0u64;
    let mut best_size = 0usize;
    let shots = result.shots.max(1) as f64;
    for (&bits, &count) in &result.counts {
        if graph.is_independent(bits) {
            valid += count as u64;
        }
        let repaired = repair(graph, bits);
        let size = repaired.count_ones() as usize;
        total += size as f64 * count as f64;
        if size > best_size {
            best_size = size;
            best_set = repaired;
        }
    }
    MisScore {
        mean_set_size: total / shots,
        best_set_size: best_size,
        best_set,
        valid_fraction: valid as f64 / shots,
    }
}

/// The variational cost to *minimize*: negative mean repaired set size.
pub fn cost(graph: &Graph, result: &SampleResult) -> f64 {
    -score(graph, result).mean_set_size
}

/// One evaluated grid point of a [`sweep_search`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MisSweepTrial {
    /// The parameter scaling applied to the base sweep.
    pub point: SweepPoint,
    /// The MIS score the scaled sweep achieved.
    pub score: MisScore,
}

/// Result of a grid search over sweep-parameter scalings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MisSweepSearch {
    /// All evaluated trials, in grid order (ω-major).
    pub trials: Vec<MisSweepTrial>,
    /// Index into `trials` of the best mean repaired set size.
    pub best: usize,
}

impl MisSweepSearch {
    /// The winning trial.
    pub fn best_trial(&self) -> &MisSweepTrial {
        &self.trials[self.best]
    }
}

/// Grid-search the (Ω, δ) scaling of a base MIS sweep.
///
/// Builds the `omega_scales × delta_scales` grid of [`SweepPoint`]s over the
/// base program and runs it through [`Runtime::run_sweep`]: every point is
/// checked before anything runs, then the grid runs under one lease with
/// results bit-identical to independent runs.
///
/// Panics if either scale list is empty (the grid would have no points).
pub fn sweep_search(
    rt: &Runtime,
    register: &Register,
    graph: &Graph,
    base: &MisSweep,
    shots: u32,
    omega_scales: &[f64],
    delta_scales: &[f64],
) -> Result<MisSweepSearch, RuntimeError> {
    let template = mis_program(register, base, shots);
    let points: Vec<SweepPoint> = omega_scales
        .iter()
        .flat_map(|&os| {
            delta_scales.iter().map(move |&ds| SweepPoint {
                omega_scale: os,
                delta_scale: ds,
                phase_offset: 0.0,
            })
        })
        .collect();
    let reports = rt.run_sweep(&template, &points)?;
    let trials: Vec<MisSweepTrial> = points
        .into_iter()
        .zip(&reports)
        .map(|(point, report)| MisSweepTrial {
            point,
            score: score(graph, &report.result),
        })
        .collect();
    let best = trials
        .iter()
        .enumerate()
        .max_by(|(_, a), (_, b)| {
            a.score
                .mean_set_size
                .partial_cmp(&b.score.mean_set_size)
                .expect("finite scores")
        })
        .map(|(i, _)| i)
        .expect("non-empty grid");
    Ok(MisSweepSearch { trials, best })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hpcqc_emulator::{Emulator, SvBackend};

    fn triangle_register() -> Register {
        // equilateral triangle with 6 µm sides: all pairs blockaded at r_b ≈ 8.7
        Register::from_coords(&[(0.0, 0.0), (6.0, 0.0), (3.0, 5.196)]).unwrap()
    }

    #[test]
    fn unit_disk_graph_construction() {
        let reg = Register::linear(4, 6.0).unwrap();
        let g = Graph::unit_disk(&reg, 8.0);
        // nearest neighbours only
        assert_eq!(g.edges, vec![(0, 1), (1, 2), (2, 3)]);
        let g2 = Graph::unit_disk(&reg, 13.0);
        assert_eq!(g2.edges.len(), 5, "NN + NNN edges");
    }

    #[test]
    fn independence_and_violations() {
        let g = Graph {
            n: 3,
            edges: vec![(0, 1), (1, 2)],
        };
        assert!(g.is_independent(0b101));
        assert!(!g.is_independent(0b011));
        assert_eq!(g.violations(0b111), 2);
        assert_eq!(g.violations(0b000), 0);
    }

    #[test]
    fn exact_mis_on_known_graphs() {
        // path of 4: MIS = 2 (ends + one middle... actually {0,2} or {0,3} or {1,3}) = 2
        let path4 = Graph {
            n: 4,
            edges: vec![(0, 1), (1, 2), (2, 3)],
        };
        assert_eq!(path4.exact_mis_size(), 2);
        // 5-cycle: MIS = 2
        let c5 = Graph {
            n: 5,
            edges: vec![(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)],
        };
        assert_eq!(c5.exact_mis_size(), 2);
        // empty graph: all vertices
        let empty = Graph {
            n: 6,
            edges: vec![],
        };
        assert_eq!(empty.exact_mis_size(), 6);
        // triangle: 1
        let tri = Graph {
            n: 3,
            edges: vec![(0, 1), (1, 2), (0, 2)],
        };
        assert_eq!(tri.exact_mis_size(), 1);
    }

    #[test]
    fn repair_produces_independent_sets() {
        let g = Graph {
            n: 4,
            edges: vec![(0, 1), (1, 2), (2, 3)],
        };
        for set in 0..16u64 {
            let r = repair(&g, set);
            assert!(
                g.is_independent(r),
                "repair({set:04b}) = {r:04b} not independent"
            );
            assert_eq!(r & !set, 0, "repair only removes vertices");
        }
    }

    #[test]
    fn sweep_finds_mis_on_blockaded_triangle() {
        // all three atoms mutually blockaded → MIS size 1; the sweep should
        // produce single-excitation states dominantly.
        let reg = triangle_register();
        let g = Graph::unit_disk(&reg, 8.7);
        assert_eq!(g.exact_mis_size(), 1);
        let ir = mis_program(&reg, &MisSweep::default(), 1000);
        let res = SvBackend::default().run(&ir, 5).unwrap();
        let sc = score(&g, &res);
        assert!(sc.best_set_size == 1, "best {}", sc.best_set_size);
        assert!(
            sc.mean_set_size > 0.5,
            "sweep excites something: {}",
            sc.mean_set_size
        );
        assert!(
            sc.valid_fraction > 0.5,
            "blockade keeps sets valid: {}",
            sc.valid_fraction
        );
    }

    #[test]
    fn sweep_solves_chain_mis() {
        // 5-atom chain, NN blockade: MIS = {0,2,4}, size 3.
        let reg = Register::linear(5, 6.0).unwrap();
        let g = Graph::unit_disk(&reg, 8.7);
        assert_eq!(g.exact_mis_size(), 3);
        let sweep = MisSweep {
            duration: 4.0,
            ..MisSweep::default()
        };
        let ir = mis_program(&reg, &sweep, 1000);
        let res = SvBackend::default().run(&ir, 5).unwrap();
        let sc = score(&g, &res);
        assert_eq!(sc.best_set_size, 3, "adiabatic sweep reaches the MIS");
        assert!(sc.mean_set_size > 2.0, "mean {}", sc.mean_set_size);
        assert!(g.is_independent(sc.best_set));
    }

    #[test]
    fn cost_is_negative_set_size() {
        let g = Graph {
            n: 2,
            edges: vec![],
        };
        let res = SampleResult::from_shots(2, &[0b11, 0b11], "t");
        assert!((cost(&g, &res) + 2.0).abs() < 1e-12);
    }

    #[test]
    fn sweep_search_finds_mis_on_chain() {
        use hpcqc_qrmi::{QrmiConfig, ResourceFactory};
        let reg = Register::linear(5, 6.0).unwrap();
        let g = Graph::unit_disk(&reg, 8.7);
        let rt = Runtime::new(
            ResourceFactory::new(7)
                .build_registry(&QrmiConfig::development_default())
                .unwrap(),
        );
        let search = sweep_search(
            &rt,
            &reg,
            &g,
            &MisSweep::default(),
            400,
            &[0.8, 1.0],
            &[0.9, 1.0],
        )
        .unwrap();
        assert_eq!(search.trials.len(), 4);
        // grid is ω-major: trial 3 is (1.0, 1.0), the base sweep itself
        assert_eq!(search.trials[3].point, SweepPoint::identity());
        let best = search.best_trial();
        assert_eq!(best.score.best_set_size, 3, "some scaling reaches the MIS");
        assert!(g.is_independent(best.score.best_set));
        assert!(
            search
                .trials
                .iter()
                .all(|t| t.score.mean_set_size <= best.score.mean_set_size),
            "best is the grid argmax"
        );
    }

    #[test]
    fn program_respects_production_envelope() {
        // default sweep must fit the production device (it's the flagship
        // workload): validate against the hardware spec.
        let reg = Register::linear(6, 6.0).unwrap();
        let ir = mis_program(&reg, &MisSweep::default(), 500);
        let spec = hpcqc_program::DeviceSpec::analog_production();
        let v = hpcqc_program::validate(&ir.sequence, &spec);
        assert!(v.is_empty(), "violations: {v:?}");
    }
}
