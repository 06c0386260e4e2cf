//! Precomputed cost tables and the fused diagonal cost layer.
//!
//! The MaxCut Hamiltonian is diagonal, so `C(z)` for all `2^n` basis
//! states can be tabulated once per graph and reused by every optimizer
//! iteration: the cost layer becomes a single `e^{−iγ·C(z)}` pass
//! (independent of edge count) and the expectation a single weighted sum.
//! This is the same fusion `aer` performs for diagonal operators and is
//! what makes the paper's grid search (thousands of QAOA runs) tractable.
//!
//! The table stores each basis state's cost as an index into the
//! distinct cost values (the *levels*), so a cost layer evaluates
//! `e^{−iγ·c}` once per level and then gathers, instead of once per
//! amplitude. An integer-weight graph with `m` edges has at most `m + 1`
//! levels; random real weights give about `2^(n−1)`, since
//! `C(z) = C(¬z)`. The gathered phase is the very `cis` the per-amplitude
//! pass would compute, so the amplitudes are bit-identical to it.

use qq_circuit::CostModel;
use qq_sim::{StateVector, C64};
use rayon::prelude::*;

/// `C(z)` for every basis state of an `n`-qubit register, stored as a
/// level index per state into the distinct values of `C`.
#[derive(Debug, Clone)]
pub struct CostTable {
    /// `levels[level[z]] == C(z)`, bit for bit.
    level: Vec<u32>,
    /// The distinct values of `C` — one per bit pattern — ascending in
    /// `f64::total_cmp` order.
    levels: Vec<f64>,
    num_qubits: usize,
}

impl CostTable {
    /// Tabulate a cost model over all `2^n` basis states. The values are
    /// computed in parallel across the rayon pool, each independently;
    /// sorting them and numbering the levels is sequential, so the table
    /// is identical at any thread count.
    pub fn new(model: &CostModel) -> Self {
        let n = model.num_qubits;
        // a level index is below 2^n; `solve` caps n at
        // MAX_QAOA_QUBITS = 26
        assert!(n <= 32, "level indices are u32");
        let size = 1usize << n;
        let mut by_value = vec![(0.0f64, 0u32); size];
        by_value.par_iter_mut().enumerate().for_each(|(z, e)| {
            *e = (model.eval_basis(z as u64), z as u32);
        });
        by_value.sort_unstable_by(|a, b| a.0.total_cmp(&b.0));
        // total_cmp is a total order on bit patterns, so each run of
        // equal values is one bit pattern and one level (-0.0 and +0.0
        // are two levels)
        let mut level = vec![0u32; size];
        let mut levels: Vec<f64> = Vec::new();
        for &(c, z) in &by_value {
            if levels.last().map(|l| l.to_bits()) != Some(c.to_bits()) {
                levels.push(c);
            }
            level[z as usize] = (levels.len() - 1) as u32;
        }
        CostTable { level, levels, num_qubits: n }
    }

    /// Number of qubits.
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Cost of one basis state.
    #[inline]
    pub fn value(&self, z: u64) -> f64 {
        self.levels[self.level[z as usize] as usize]
    }

    /// The certified maximum over all basis states (exact MaxCut value —
    /// available as a by-product for registers small enough to tabulate).
    pub fn max_value(&self) -> f64 {
        self.levels.iter().copied().fold(f64::MIN, f64::max)
    }

    /// Apply the fused cost layer `|ψ⟩ ← e^{−iγ·C} |ψ⟩` in one pass:
    /// one `cis` per level, then a gather per amplitude.
    pub fn apply_cost_layer(&self, state: &mut StateVector, gamma: f64) {
        assert_eq!(state.num_qubits(), self.num_qubits, "register width mismatch");
        let mut phases = vec![C64::ZERO; self.levels.len()];
        phases.par_iter_mut().zip(self.levels.par_iter()).for_each(|(p, &c)| {
            *p = C64::cis(-gamma * c);
        });
        state.amplitudes_mut().par_iter_mut().zip(self.level.par_iter()).for_each(|(a, &l)| {
            *a *= phases[l as usize];
        });
    }

    /// Exact ⟨C⟩ under `state`.
    pub fn expectation(&self, state: &StateVector) -> f64 {
        qq_sim::measure::expectation_diagonal(state.amplitudes(), 0, |z| self.value(z))
    }

    /// Sample-mean ⟨C⟩ from `shots` measurements.
    pub fn sampled_expectation(&self, state: &StateVector, shots: usize, seed: u64) -> f64 {
        let counts = qq_sim::measure::sample_counts(state.amplitudes(), shots, seed);
        let total: f64 = counts.iter().map(|&(z, c)| self.value(z) * c as f64).sum();
        total / shots as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qq_circuit::prelude::*;
    use qq_graph::generators::{self, WeightKind};

    #[test]
    fn table_matches_cut_values() {
        let g = generators::erdos_renyi(7, 0.5, WeightKind::Random01, 3);
        let table = CostTable::new(&CostModel::from_maxcut(&g));
        for z in [0u64, 5, 63, 127] {
            let cut = qq_graph::Cut::from_basis_index(7, z).value(&g);
            assert!((table.value(z) - cut).abs() < 1e-12);
        }
    }

    #[test]
    fn levels_are_the_distinct_cut_values() {
        // integer weights: at most m + 1 levels, whatever n is
        let g = generators::erdos_renyi(12, 0.3, WeightKind::Uniform, 4);
        let table = CostTable::new(&CostModel::from_maxcut(&g));
        assert!(table.levels.len() <= g.num_edges() + 1, "{} levels", table.levels.len());
        // random weights: C(z) = C(¬z) halves the 2^n states at most
        let g = generators::erdos_renyi(10, 0.6, WeightKind::Random01, 4);
        let model = CostModel::from_maxcut(&g);
        let table = CostTable::new(&model);
        assert!(table.levels.len() <= 1 << 9);
        assert!(table.levels.windows(2).all(|w| w[0] < w[1]), "ascending and distinct");
        for z in 0..1u64 << 10 {
            assert_eq!(table.value(z).to_bits(), model.eval_basis(z).to_bits());
        }
    }

    #[test]
    fn max_value_equals_exact_maxcut() {
        let g = generators::erdos_renyi(10, 0.4, WeightKind::Random01, 8);
        let table = CostTable::new(&CostModel::from_maxcut(&g));
        let exact = qq_classical::exact_maxcut(&g);
        assert!((table.max_value() - exact.value).abs() < 1e-9);
    }

    #[test]
    fn fused_layer_matches_gate_layer() {
        let g = generators::erdos_renyi(6, 0.5, WeightKind::Random01, 5);
        let model = CostModel::from_maxcut(&g);
        let table = CostTable::new(&model);
        let gamma = 0.37;

        // fused path
        let mut fused = qq_sim::StateVector::plus_state(6);
        table.apply_cost_layer(&mut fused, gamma);

        // gate path: one cost layer of the ansatz (γ = gamma, β = 0 means
        // the mixer contributes RX(0) = identity)
        let params = AnsatzParams::new(vec![gamma], vec![0.0]);
        let circuit = Synthesizer::new(Preference::None).qaoa_ansatz(&model, &params);
        let gate = qq_circuit::exec::run_statevector(&circuit);

        for (a, b) in fused.amplitudes().iter().zip(gate.amplitudes()) {
            assert!((*a - *b).norm_sqr() < 1e-18, "{a} vs {b}");
        }
    }

    #[test]
    fn expectation_plus_state_is_half_weight() {
        // ⟨+|H_C|+⟩ = W/2 for any graph
        let g = generators::erdos_renyi(8, 0.4, WeightKind::Uniform, 2);
        let table = CostTable::new(&CostModel::from_maxcut(&g));
        let s = qq_sim::StateVector::plus_state(8);
        assert!((table.expectation(&s) - g.total_weight() / 2.0).abs() < 1e-9);
    }

    #[test]
    fn sampled_expectation_approximates_exact() {
        let g = generators::erdos_renyi(8, 0.4, WeightKind::Uniform, 6);
        let table = CostTable::new(&CostModel::from_maxcut(&g));
        let mut s = qq_sim::StateVector::plus_state(8);
        table.apply_cost_layer(&mut s, 0.3);
        s.rx(2, 0.8);
        let exact = table.expectation(&s);
        let sampled = table.sampled_expectation(&s, 200_000, 4);
        assert!((exact - sampled).abs() < 0.1, "{exact} vs {sampled}");
    }
}
