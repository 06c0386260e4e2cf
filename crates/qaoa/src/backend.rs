//! [`MaxCutSolver`] backends for the quantum side of the suite: plain
//! QAOA, the paper's per-sub-graph `(p, rhobeg)` grid search, and RQAOA.
//!
//! These live here — not in the orchestrator — so the dispatch layer in
//! `qq-core` needs no edits when backend behaviour changes, and so any
//! crate can drive a quantum solve through the trait without pulling in
//! the divide-and-conquer machinery.

use crate::config::QaoaConfig;
use crate::rqaoa::RqaoaConfig;
use crate::QaoaError;
use qq_graph::{CutResult, Graph, MaxCutSolver, SolverCaps, SolverError};

impl From<QaoaError> for SolverError {
    fn from(e: QaoaError) -> Self {
        match e {
            QaoaError::InvalidConfig { message } => SolverError::InvalidConfig(message),
            other => SolverError::Backend(other.to_string()),
        }
    }
}

/// Register ceiling shared by every statevector-backed backend.
fn simulated_device_caps() -> SolverCaps {
    SolverCaps {
        max_nodes: Some(qq_sim::state::MAX_QUBITS),
        // COBYLA and extraction are deterministic per (config, seed)
        deterministic: true,
        quantum: true,
    }
}

/// QAOA on the simulated quantum device.
#[derive(Debug, Clone, Default)]
pub struct QaoaSolver {
    /// Driver configuration; its `seed` is XOR-mixed with the per-call
    /// seed.
    pub config: QaoaConfig,
}

impl MaxCutSolver for QaoaSolver {
    fn label(&self) -> &str {
        "qaoa"
    }

    fn solve(&self, g: &Graph, seed: u64) -> Result<CutResult, SolverError> {
        self.check_instance(g)?;
        let cfg = QaoaConfig { seed: self.config.seed ^ seed, ..self.config.clone() };
        Ok(crate::solve(g, &cfg)?.best)
    }

    fn capabilities(&self) -> SolverCaps {
        simulated_device_caps()
    }
}

/// QAOA grid search over `(p, rhobeg)` — the paper's per-sub-graph
/// procedure for Fig. 4 ("analyzed with the same parameter grid search
/// from before, and the QAOA solution with the highest MaxCut value is
/// stored").
#[derive(Debug, Clone)]
pub struct QaoaGridSolver {
    /// Layer counts to scan.
    pub ps: Vec<usize>,
    /// `rhobeg` values to scan.
    pub rhobegs: Vec<f64>,
    /// Template configuration (seed, shots, policy, …).
    pub base: QaoaConfig,
}

impl QaoaGridSolver {
    /// The configuration grid cell `(p, rhobeg)` solves with under the
    /// per-call `seed`.
    fn cell(&self, p: usize, rhobeg: f64, seed: u64) -> QaoaConfig {
        QaoaConfig {
            layers: p,
            rhobeg,
            max_iters: QaoaConfig::paper_iterations(p),
            seed: self.base.seed ^ seed ^ ((p as u64) << 32) ^ (rhobeg.to_bits() >> 16),
            ..self.base.clone()
        }
    }

    /// Reject an empty grid and any cell whose configuration
    /// [`QaoaConfig::validate`] rejects.
    pub fn validate(&self) -> Result<(), QaoaError> {
        if self.ps.is_empty() || self.rhobegs.is_empty() {
            return Err(QaoaError::InvalidConfig { message: "empty QAOA grid".into() });
        }
        for &p in &self.ps {
            for &rb in &self.rhobegs {
                self.cell(p, rb, 0).validate()?;
            }
        }
        Ok(())
    }
}

impl MaxCutSolver for QaoaGridSolver {
    fn label(&self) -> &str {
        "qaoa-grid"
    }

    fn solve(&self, g: &Graph, seed: u64) -> Result<CutResult, SolverError> {
        self.validate()?;
        self.check_instance(g)?;
        let mut best: Option<CutResult> = None;
        for &p in &self.ps {
            for &rb in &self.rhobegs {
                let r = crate::solve(g, &self.cell(p, rb, seed))?;
                if best.as_ref().map(|b| r.best.value > b.value).unwrap_or(true) {
                    best = Some(r.best);
                }
            }
        }
        Ok(best.expect("grid is non-empty"))
    }

    fn capabilities(&self) -> SolverCaps {
        simulated_device_caps()
    }
}

/// Recursive QAOA (Bravyi et al.) — the non-local variant the paper notes
/// "can also be leveraged using QAOA² to get a good global solution for
/// very large problems".
#[derive(Debug, Clone, Default)]
pub struct RqaoaSolver {
    /// RQAOA configuration; the inner QAOA seed is XOR-mixed with the
    /// per-call seed.
    pub config: RqaoaConfig,
}

impl MaxCutSolver for RqaoaSolver {
    fn label(&self) -> &str {
        "rqaoa"
    }

    fn solve(&self, g: &Graph, seed: u64) -> Result<CutResult, SolverError> {
        self.check_instance(g)?;
        let cfg = RqaoaConfig {
            qaoa: QaoaConfig { seed: self.config.qaoa.seed ^ seed, ..self.config.qaoa.clone() },
            ..self.config.clone()
        };
        Ok(crate::rqaoa_solve(g, &cfg)?.best)
    }

    fn capabilities(&self) -> SolverCaps {
        simulated_device_caps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qq_graph::generators::{self, WeightKind};

    #[test]
    fn qaoa_backend_solves_and_mixes_seed() {
        let g = generators::erdos_renyi(8, 0.4, WeightKind::Uniform, 2);
        let solver =
            QaoaSolver { config: QaoaConfig { layers: 1, max_iters: 10, ..QaoaConfig::default() } };
        let a = solver.solve(&g, 5).unwrap();
        let b = solver.solve(&g, 5).unwrap();
        assert_eq!(a.cut, b.cut, "same seed must reproduce");
        assert_eq!(a.cut.len(), 8);
        assert!(solver.capabilities().quantum);
    }

    #[test]
    fn grid_backend_rejects_empty_grid() {
        let g = generators::ring(6);
        let solver = QaoaGridSolver { ps: vec![], rhobegs: vec![0.1], base: QaoaConfig::default() };
        assert!(matches!(solver.solve(&g, 0), Err(SolverError::InvalidConfig(_))));
    }

    #[test]
    fn bad_rhobeg_is_a_config_error_on_every_backend() {
        let g = generators::ring(10);
        let bad = QaoaConfig { rhobeg: 0.0, ..QaoaConfig::default() };
        let qaoa = QaoaSolver { config: bad.clone() };
        assert!(matches!(qaoa.solve(&g, 0), Err(SolverError::InvalidConfig(_))));
        let grid = QaoaGridSolver { ps: vec![1], rhobegs: vec![0.5, f64::NAN], base: bad.clone() };
        assert!(matches!(grid.solve(&g, 0), Err(SolverError::InvalidConfig(_))));
        let rqaoa = RqaoaSolver { config: RqaoaConfig { qaoa: bad, stop_size: 4 } };
        assert!(matches!(rqaoa.solve(&g, 0), Err(SolverError::InvalidConfig(_))));
    }

    #[test]
    fn backends_reject_oversized_registers() {
        let g = generators::erdos_renyi(40, 0.05, WeightKind::Uniform, 1);
        let solver = QaoaSolver::default();
        assert!(matches!(solver.solve(&g, 0), Err(SolverError::TooLarge { nodes: 40, .. })));
    }
}
