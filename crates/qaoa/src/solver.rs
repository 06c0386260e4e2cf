//! End-to-end QAOA solve: optimize parameters, extract the cut.

use crate::config::{ObjectiveMode, QaoaConfig, SolutionPolicy, COBYLA_RHOEND};
use crate::cost::CostTable;
use crate::executor::{self, CircuitMetrics};
use crate::QaoaError;
use qq_circuit::{AnsatzParams, CostModel};
use qq_classical::CutResult;
use qq_graph::{Cut, Graph};
use qq_opt::cobyla::Cobyla;
use qq_opt::Optimizer;
use std::cell::Cell;

/// Outcome of a QAOA run.
#[derive(Debug, Clone)]
pub struct QaoaResult {
    /// The extracted cut and its (exact) value on the input graph.
    pub best: CutResult,
    /// Optimized variational parameters.
    pub params: AnsatzParams,
    /// Final exact expectation ⟨H_C⟩ at the optimized parameters.
    pub expectation: f64,
    /// Objective evaluations consumed by the optimizer.
    pub evals: usize,
    /// Running-best objective history (negated expectation estimates).
    pub history: Vec<f64>,
    /// Metrics of the synthesized ansatz circuit at the final parameters.
    pub circuit: CircuitMetrics,
}

/// Solve MaxCut on `g` with QAOA.
///
/// Deterministic for a fixed `(graph, config)` pair: shot noise is driven
/// by seeds derived from `cfg.seed` and the evaluation counter.
pub fn solve(g: &Graph, cfg: &QaoaConfig) -> Result<QaoaResult, QaoaError> {
    cfg.validate()?;
    let n = g.num_nodes();
    if n > crate::MAX_QAOA_QUBITS {
        return Err(QaoaError::TooManyQubits { requested: n, max: crate::MAX_QAOA_QUBITS });
    }
    if n == 0 {
        return Ok(trivial_result(g, cfg, Cut::new(0)));
    }
    if g.num_edges() == 0 {
        return Ok(trivial_result(g, cfg, Cut::new(n)));
    }

    let model = CostModel::from_maxcut(g);
    let table = CostTable::new(&model);
    let p = cfg.layers;

    // Objective: negated ⟨H_C⟩ estimate (optimizers minimize). Shot seeds
    // advance per evaluation so repeated calls see fresh sampling noise,
    // yet the whole run is reproducible.
    let eval_counter = Cell::new(0u64);
    let objective = |flat: &[f64]| -> f64 {
        let params = AnsatzParams::from_vec(p, flat);
        let state = executor::build_state_fused(&table, &params);
        let value = match cfg.objective {
            ObjectiveMode::Exact => table.expectation(&state),
            ObjectiveMode::Shots => {
                let k = eval_counter.get();
                eval_counter.set(k + 1);
                let shot_seed = cfg.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(k);
                table.sampled_expectation(&state, cfg.shots, shot_seed)
            }
        };
        -value
    };

    let x0 = cfg.initial_params.clone().unwrap_or_else(|| cfg.default_initial_params());
    let optimizer = Cobyla::new(cfg.rhobeg, COBYLA_RHOEND, cfg.max_iters);
    let opt = optimizer.minimize(&objective, &x0);

    let params = AnsatzParams::from_vec(p, &opt.x);
    let state = executor::build_state_fused(&table, &params);
    let expectation = table.expectation(&state);

    // Extract the solution bit string.
    let cut = match cfg.policy {
        SolutionPolicy::HighestAmplitude => {
            let top = qq_sim::measure::top_k_amplitudes(state.amplitudes(), 1);
            Cut::from_basis_index(n, top[0].0)
        }
        SolutionPolicy::TopK(k) => {
            let top = qq_sim::measure::top_k_amplitudes(state.amplitudes(), k);
            let z = top
                .iter()
                .max_by(|a, b| table.value(a.0).total_cmp(&table.value(b.0)))
                // INVARIANT: top_k_amplitudes of a normalized state
                // returns at least one entry for k >= 1.
                .expect("top-k of a normalized state is non-empty")
                .0;
            Cut::from_basis_index(n, z)
        }
        SolutionPolicy::BestShot => {
            let counts =
                qq_sim::measure::sample_counts(state.amplitudes(), cfg.shots, cfg.seed ^ 0xbeef);
            let z = counts
                .iter()
                .max_by(|a, b| table.value(a.0).total_cmp(&table.value(b.0)))
                // INVARIANT: cfg.shots >= 1 is validated at config
                // construction, so sample_counts is non-empty.
                .expect("shots ≥ 1 validated")
                .0;
            Cut::from_basis_index(n, z)
        }
    };

    Ok(QaoaResult {
        best: CutResult::new(cut, g),
        params: params.clone(),
        expectation,
        evals: opt.evals,
        history: opt.history,
        circuit: executor::circuit_metrics(&model, &params, cfg.preference),
    })
}

fn trivial_result(g: &Graph, cfg: &QaoaConfig, cut: Cut) -> QaoaResult {
    QaoaResult {
        best: CutResult::new(cut, g),
        params: AnsatzParams::new(vec![0.0; cfg.layers], vec![0.0; cfg.layers]),
        expectation: 0.0,
        evals: 0,
        history: Vec::new(),
        circuit: CircuitMetrics { depth: 0, gates: 0, two_qubit: 0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qq_graph::generators::{self, WeightKind};

    fn exact_cfg(p: usize, seed: u64) -> QaoaConfig {
        // Generous optimizer budget for ground-truth tests — the paper's
        // 30–100-iteration budget intentionally under-optimizes (that is
        // part of its findings); here we want QAOA at its best.
        QaoaConfig {
            layers: p,
            objective: ObjectiveMode::Exact,
            policy: SolutionPolicy::TopK(16),
            seed,
            max_iters: 400,
            ..QaoaConfig::default()
        }
    }

    #[test]
    fn single_edge_p1_reaches_optimal_cut() {
        let g = qq_graph::Graph::from_edges(2, [(0, 1, 1.0)]).unwrap();
        let res = solve(&g, &exact_cfg(1, 3)).unwrap();
        assert_eq!(res.best.value, 1.0);
        // p=1 QAOA solves a single edge exactly: ⟨H_C⟩ → 1
        assert!(res.expectation > 0.9, "expectation {}", res.expectation);
    }

    #[test]
    fn even_ring_reaches_optimum_with_topk() {
        let g = generators::ring(6);
        let res = solve(&g, &exact_cfg(3, 1)).unwrap();
        assert!(res.best.value >= 5.0, "value {}", res.best.value);
    }

    #[test]
    fn approximation_ratio_reasonable_on_random_graphs() {
        let g = generators::erdos_renyi(10, 0.4, WeightKind::Uniform, 21);
        let exact = qq_classical::exact_maxcut(&g);
        let res = solve(&g, &exact_cfg(3, 2)).unwrap();
        let ratio = res.best.value / exact.value;
        assert!(ratio >= 0.75, "ratio {ratio}");
    }

    #[test]
    fn shots_mode_is_deterministic_and_close_to_exact() {
        let g = generators::erdos_renyi(8, 0.4, WeightKind::Uniform, 5);
        let cfg = QaoaConfig { layers: 2, seed: 9, ..QaoaConfig::default() };
        let a = solve(&g, &cfg).unwrap();
        let b = solve(&g, &cfg).unwrap();
        assert_eq!(a.best.cut, b.best.cut);
        assert_eq!(a.evals, b.evals);
    }

    #[test]
    fn higher_p_does_not_hurt_expectation_much() {
        // sanity: p=3 should be ≥ p=1 on expectation for these seeds
        let g = generators::erdos_renyi(8, 0.5, WeightKind::Uniform, 13);
        let r1 = solve(&g, &exact_cfg(1, 4)).unwrap();
        let r3 = solve(&g, &exact_cfg(3, 4)).unwrap();
        assert!(
            r3.expectation >= r1.expectation - 0.05,
            "{} vs {}",
            r3.expectation,
            r1.expectation
        );
    }

    #[test]
    fn topk_never_below_highest_amplitude() {
        let g = generators::erdos_renyi(9, 0.35, WeightKind::Random01, 6);
        let base = QaoaConfig {
            layers: 2,
            objective: ObjectiveMode::Exact,
            seed: 8,
            ..QaoaConfig::default()
        };
        let ha =
            solve(&g, &QaoaConfig { policy: SolutionPolicy::HighestAmplitude, ..base.clone() })
                .unwrap();
        let tk =
            solve(&g, &QaoaConfig { policy: SolutionPolicy::TopK(32), ..base.clone() }).unwrap();
        assert!(tk.best.value >= ha.best.value - 1e-12);
    }

    #[test]
    fn rejects_oversized_graph() {
        let g = qq_graph::Graph::new(27);
        assert!(matches!(solve(&g, &QaoaConfig::default()), Err(QaoaError::TooManyQubits { .. })));
    }

    #[test]
    fn bad_rhobeg_and_initial_params_are_config_errors() {
        // Cobyla::new asserts rhobeg ≥ its final radius, and NaN initial
        // params would yield a NaN expectation: both are config errors
        let g = generators::ring(6);
        for rhobeg in [0.0, 5e-5, -0.5, f64::NAN] {
            let cfg = QaoaConfig { rhobeg, ..QaoaConfig::default() };
            assert!(
                matches!(solve(&g, &cfg), Err(QaoaError::InvalidConfig { .. })),
                "rhobeg {rhobeg}"
            );
        }
        let cfg = QaoaConfig {
            layers: 1,
            initial_params: Some(vec![f64::NAN, 0.3]),
            ..QaoaConfig::default()
        };
        assert!(matches!(solve(&g, &cfg), Err(QaoaError::InvalidConfig { .. })));
    }

    #[test]
    fn trivial_graphs_short_circuit() {
        let empty = qq_graph::Graph::new(0);
        assert_eq!(solve(&empty, &QaoaConfig::default()).unwrap().best.value, 0.0);
        let edgeless = qq_graph::Graph::new(5);
        let r = solve(&edgeless, &QaoaConfig::default()).unwrap();
        assert_eq!(r.best.value, 0.0);
        assert_eq!(r.evals, 0);
    }

    #[test]
    fn result_reports_circuit_metrics() {
        let g = generators::ring(6);
        let res = solve(&g, &exact_cfg(2, 0)).unwrap();
        assert!(res.circuit.depth > 0);
        assert_eq!(res.circuit.two_qubit, 12); // 6 edges × 2 layers
    }
}
