//! Recursive QAOA (Bravyi, Kliesch, König, Tang) — the non-local QAOA
//! variant the paper highlights as numerically outperforming standard
//! QAOA and "leverageable using QAOA² to get a good global solution for
//! very large problems".
//!
//! One RQAOA round: optimize a depth-`p` ansatz, measure the edge
//! correlations `M_uv = ⟨Z_u Z_v⟩`, pick the edge with the largest
//! `|M_uv|` and *contract* it — impose `s_v = sign(M_uv) · s_u` — which
//! eliminates one variable and rewrites the graph (parallel edges merge by
//! weight addition). Recurse until the graph reaches `stop_size`, solve
//! that rump exactly, and unwind the substitutions.

use crate::config::{QaoaConfig, COBYLA_RHOEND};
use crate::cost::CostTable;
use crate::executor;
use crate::QaoaError;
use qq_circuit::{AnsatzParams, CostModel};
use qq_classical::CutResult;
use qq_graph::{Cut, Graph, NodeId};
use qq_opt::cobyla::Cobyla;
use qq_opt::Optimizer;

/// RQAOA configuration.
#[derive(Debug, Clone)]
pub struct RqaoaConfig {
    /// Per-round QAOA settings (layers, rhobeg, iteration budget, seed).
    pub qaoa: QaoaConfig,
    /// Stop contracting at this many nodes and solve exactly.
    pub stop_size: usize,
}

impl Default for RqaoaConfig {
    fn default() -> Self {
        RqaoaConfig { qaoa: QaoaConfig::default(), stop_size: 8 }
    }
}

impl RqaoaConfig {
    /// Validate the per-round QAOA settings and the stop size.
    pub fn validate(&self) -> Result<(), QaoaError> {
        self.qaoa.validate()?;
        if self.stop_size < 1 {
            return Err(QaoaError::InvalidConfig { message: "stop_size must be ≥ 1".into() });
        }
        Ok(())
    }
}

/// Result of an RQAOA run.
#[derive(Debug, Clone)]
pub struct RqaoaResult {
    /// The cut on the original graph.
    pub best: CutResult,
    /// Number of variable eliminations performed.
    pub eliminations: usize,
}

/// A recorded elimination: `node = sign · representative`.
#[derive(Debug, Clone, Copy)]
struct Substitution {
    eliminated: NodeId,
    representative: NodeId,
    sign: f64,
}

/// Solve MaxCut with recursive QAOA.
pub fn rqaoa_solve(g: &Graph, cfg: &RqaoaConfig) -> Result<RqaoaResult, QaoaError> {
    cfg.validate()?;
    let n0 = g.num_nodes();
    if n0 > crate::MAX_QAOA_QUBITS {
        return Err(QaoaError::TooManyQubits { requested: n0, max: crate::MAX_QAOA_QUBITS });
    }
    if n0 == 0 {
        return Ok(RqaoaResult { best: CutResult::new(Cut::new(0), g), eliminations: 0 });
    }

    // Work on a shrinking graph with "live node → original nodes" tracking
    // through substitutions in original-node coordinates.
    let mut current = g.clone();
    // original id of each current-graph node
    let mut ids: Vec<NodeId> = (0..n0 as NodeId).collect();
    let mut subs: Vec<Substitution> = Vec::new();
    let mut round = 0u64;

    while current.num_nodes() > cfg.stop_size && current.num_edges() > 0 {
        let (u, v, corr) = strongest_correlation(&current, &cfg.qaoa, round)?;
        let sign = if corr >= 0.0 { 1.0 } else { -1.0 };
        // In the MaxCut Hamiltonian picture, ⟨Z_uZ_v⟩ > 0 means the spins
        // agree (same side); < 0 means they disagree.
        subs.push(Substitution {
            eliminated: ids[v as usize],
            representative: ids[u as usize],
            sign,
        });
        let (next, next_ids) = contract(&current, &ids, u, v, sign);
        current = next;
        ids = next_ids;
        round += 1;
    }

    // Exact solve of the rump.
    let rump = qq_classical::exact_maxcut(&current);

    // Unwind: seed original-node spins with the rump, then apply the
    // substitutions in reverse elimination order.
    let mut side = vec![false; n0];
    for (local, &orig) in ids.iter().enumerate() {
        side[orig as usize] = rump.cut.get(local as NodeId);
    }
    for s in subs.iter().rev() {
        let rep_side = side[s.representative as usize];
        side[s.eliminated as usize] = if s.sign > 0.0 { rep_side } else { !rep_side };
    }
    let cut = Cut::from_bools(&side);
    Ok(RqaoaResult { best: CutResult::new(cut, g), eliminations: subs.len() })
}

/// Optimize a QAOA ansatz on `g` and return the edge `(u, v)` with the
/// strongest `|⟨Z_u Z_v⟩|`, plus the signed correlation.
fn strongest_correlation(
    g: &Graph,
    qcfg: &QaoaConfig,
    round: u64,
) -> Result<(NodeId, NodeId, f64), QaoaError> {
    let model = CostModel::from_maxcut(g);
    let table = CostTable::new(&model);
    let p = qcfg.layers;

    let objective = |flat: &[f64]| -> f64 {
        let params = AnsatzParams::from_vec(p, flat);
        let state = executor::build_state_fused(&table, &params);
        -table.expectation(&state)
    };
    let x0 = qcfg.initial_params.clone().unwrap_or_else(|| qcfg.default_initial_params());
    let opt = Cobyla::new(qcfg.rhobeg, COBYLA_RHOEND, qcfg.max_iters).minimize(&objective, &x0);
    let params = AnsatzParams::from_vec(p, &opt.x);
    let state = executor::build_state_fused(&table, &params);

    // ⟨Z_uZ_v⟩ per edge, one pass over the amplitudes per edge.
    let mut best: Option<(NodeId, NodeId, f64)> = None;
    for e in g.edges() {
        let (mu, mv) = (1u64 << e.u, 1u64 << e.v);
        let corr = qq_sim::measure::expectation_diagonal(state.amplitudes(), 0, |z| {
            let agree = ((z & mu) != 0) == ((z & mv) != 0);
            if agree {
                1.0
            } else {
                -1.0
            }
        });
        let better = best.map(|(_, _, c)| corr.abs() > c.abs()).unwrap_or(true);
        if better {
            best = Some((e.u, e.v, corr));
        }
    }
    let _ = round; // rounds differ through the shrinking graph itself
    best.ok_or_else(|| QaoaError::InvalidConfig { message: "graph has no edges".into() })
}

/// Contract `v` into `u` with relative `sign`: neighbors of `v` re-attach
/// to `u` with weight `sign · w` (parallel edges merge additively;
/// vanishing weights are dropped). Node indices above `v` shift down.
fn contract(g: &Graph, ids: &[NodeId], u: NodeId, v: NodeId, sign: f64) -> (Graph, Vec<NodeId>) {
    let n = g.num_nodes();
    // new index mapping: remove v
    let remap = |x: NodeId| -> NodeId {
        if x > v {
            x - 1
        } else {
            x
        }
    };
    let nu = remap(u);
    let mut weights: std::collections::HashMap<(NodeId, NodeId), f64> =
        std::collections::HashMap::new();
    for e in g.edges() {
        let (mut a, mut b, mut w) = (e.u, e.v, e.w);
        if a == v || b == v {
            // re-attach to u with the substitution sign
            let other = if a == v { b } else { a };
            if other == u {
                continue; // the contracted edge disappears (constant term)
            }
            a = u;
            b = other;
            w *= sign;
        }
        let (ra, rb) = (remap(a), remap(b));
        let key = if ra < rb { (ra, rb) } else { (rb, ra) };
        *weights.entry(key).or_insert(0.0) += w;
    }
    let mut out = Graph::new(n - 1);
    let mut entries: Vec<((NodeId, NodeId), f64)> = weights.into_iter().collect();
    entries.sort_by_key(|&(k, _)| k);
    for ((a, b), w) in entries {
        if w != 0.0 {
            out.add_edge(a, b, w).expect("contraction preserves validity");
        }
    }
    let mut new_ids: Vec<NodeId> = Vec::with_capacity(n - 1);
    for (i, &orig) in ids.iter().enumerate() {
        if i as NodeId != v {
            new_ids.push(orig);
        }
    }
    let _ = nu;
    (out, new_ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ObjectiveMode, SolutionPolicy};
    use qq_graph::generators::{self, WeightKind};

    fn cfg(stop: usize) -> RqaoaConfig {
        RqaoaConfig {
            qaoa: QaoaConfig {
                layers: 1,
                max_iters: 40,
                objective: ObjectiveMode::Exact,
                policy: SolutionPolicy::HighestAmplitude,
                ..QaoaConfig::default()
            },
            stop_size: stop,
        }
    }

    #[test]
    fn rqaoa_solves_ring_optimally() {
        let g = generators::ring(10);
        let r = rqaoa_solve(&g, &cfg(4)).unwrap();
        assert_eq!(r.best.value, 10.0, "even ring optimum");
        assert_eq!(r.eliminations, 6);
    }

    #[test]
    fn rqaoa_matches_or_beats_plain_qaoa_on_small_graphs() {
        for seed in 0..3 {
            let g = generators::erdos_renyi(12, 0.3, WeightKind::Uniform, 400 + seed);
            let rq = rqaoa_solve(&g, &cfg(5)).unwrap();
            let plain = crate::solve(
                &g,
                &QaoaConfig {
                    layers: 1,
                    max_iters: 40,
                    objective: ObjectiveMode::Exact,
                    ..QaoaConfig::default()
                },
            )
            .unwrap();
            assert!(
                rq.best.value >= plain.best.value - 1e-9,
                "seed {seed}: rqaoa {} < qaoa {}",
                rq.best.value,
                plain.best.value
            );
        }
    }

    #[test]
    fn rqaoa_never_exceeds_exact() {
        let g = generators::erdos_renyi(11, 0.4, WeightKind::Random01, 9);
        let exact = qq_classical::exact_maxcut(&g);
        let r = rqaoa_solve(&g, &cfg(4)).unwrap();
        assert!(r.best.value <= exact.value + 1e-9);
        assert!(r.best.value >= 0.8 * exact.value, "ratio {}", r.best.value / exact.value);
    }

    #[test]
    fn bad_rhobeg_and_initial_params_are_config_errors() {
        // Cobyla::new asserts rhobeg ≥ its final radius; validation must
        // reject the config before the optimizer is built
        let g = generators::ring(10);
        for rhobeg in [0.0, 5e-5, -0.5, f64::NAN] {
            let c = RqaoaConfig { qaoa: QaoaConfig { rhobeg, ..cfg(4).qaoa }, ..cfg(4) };
            assert!(
                matches!(rqaoa_solve(&g, &c), Err(QaoaError::InvalidConfig { .. })),
                "rhobeg {rhobeg}"
            );
        }
        let c = RqaoaConfig {
            qaoa: QaoaConfig { initial_params: Some(vec![0.4, f64::NAN]), ..cfg(4).qaoa },
            ..cfg(4)
        };
        assert!(matches!(rqaoa_solve(&g, &c), Err(QaoaError::InvalidConfig { .. })));
    }

    #[test]
    fn small_graph_short_circuits_to_exact() {
        let g = generators::complete(5);
        let r = rqaoa_solve(&g, &cfg(8)).unwrap();
        assert_eq!(r.eliminations, 0);
        assert_eq!(r.best.value, 6.0); // K5 optimum
    }

    #[test]
    fn contraction_merges_parallel_edges() {
        // triangle: contracting one edge creates parallel edges that merge
        let g = Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 3.0)]).unwrap();
        let ids: Vec<NodeId> = vec![0, 1, 2];
        let (out, new_ids) = contract(&g, &ids, 0, 1, 1.0);
        assert_eq!(out.num_nodes(), 2);
        assert_eq!(out.num_edges(), 1);
        // w(0,2)=3 plus re-attached w(1,2)=2 → 5
        assert_eq!(out.edges()[0].w, 5.0);
        assert_eq!(new_ids, vec![0, 2]);
    }

    #[test]
    fn anti_correlated_contraction_flips_sign() {
        let g = Graph::from_edges(3, [(0, 1, 1.0), (1, 2, 2.0)]).unwrap();
        let ids: Vec<NodeId> = vec![0, 1, 2];
        let (out, _) = contract(&g, &ids, 0, 1, -1.0);
        // edge (1,2) re-attaches to 0 with weight −2
        assert_eq!(out.num_edges(), 1);
        assert_eq!(out.edges()[0].w, -2.0);
    }

    use qq_graph::Graph;
}
