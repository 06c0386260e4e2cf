//! QAOA driver configuration, mirroring the paper's experimental knobs.

use qq_circuit::Preference;

/// How the optimizer's objective ⟨H_C⟩ is estimated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObjectiveMode {
    /// Exact expectation from the statevector (noise-free reference).
    Exact,
    /// Sample-mean over the configured shot count — what hardware (and the
    /// paper's `aer` runs) would give.
    Shots,
}

/// How the final bit string is chosen from the optimized state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolutionPolicy {
    /// The single highest-amplitude basis state — the paper's choice
    /// ("for the sake of simplicity").
    HighestAmplitude,
    /// Inspect the `k` highest amplitudes and keep the best cut among
    /// them — the improvement the paper recommends in its conclusion.
    TopK(usize),
    /// Best cut among the sampled shots.
    BestShot,
}

/// COBYLA's final trust-region radius. The radius shrinks from `rhobeg`
/// to this value, so `rhobeg` may not start below it.
pub(crate) const COBYLA_RHOEND: f64 = 1e-4;

/// Full driver configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct QaoaConfig {
    /// Ansatz depth `p`.
    pub layers: usize,
    /// COBYLA initial trust-region radius (the paper sweeps 0.1–0.5).
    pub rhobeg: f64,
    /// Optimizer evaluation budget. The paper scales iterations linearly
    /// in `p` from 30 to 100; see [`QaoaConfig::paper_iterations`].
    pub max_iters: usize,
    /// Shots per objective estimate (paper: 4096).
    pub shots: usize,
    /// Objective estimator.
    pub objective: ObjectiveMode,
    /// Solution extraction policy.
    pub policy: SolutionPolicy,
    /// Circuit-synthesis preference.
    pub preference: Preference,
    /// Master seed: derives shot-sampling and extraction randomness.
    pub seed: u64,
    /// Optional explicit initial parameters `[γ…, β…]`; default is the
    /// trotterized-annealing ramp.
    pub initial_params: Option<Vec<f64>>,
}

impl Default for QaoaConfig {
    fn default() -> Self {
        QaoaConfig {
            layers: 3,
            rhobeg: 0.5,
            max_iters: QaoaConfig::paper_iterations(3),
            shots: 4096,
            objective: ObjectiveMode::Shots,
            policy: SolutionPolicy::HighestAmplitude,
            preference: Preference::Depth,
            seed: 0,
            initial_params: None,
        }
    }
}

impl QaoaConfig {
    /// The paper's iteration budget: "linearly dependent on p and ranges
    /// from 30 to 100 steps" over `p ∈ {3..8}` → `30 + 14·(p − 3)`.
    pub fn paper_iterations(p: usize) -> usize {
        30 + 14 * p.saturating_sub(3)
    }

    /// Convenience: configuration for a grid cell `(p, rhobeg)` as used in
    /// Fig. 3 / Table 1.
    pub fn grid_cell(p: usize, rhobeg: f64, seed: u64) -> Self {
        QaoaConfig {
            layers: p,
            rhobeg,
            max_iters: Self::paper_iterations(p),
            seed,
            ..QaoaConfig::default()
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), crate::QaoaError> {
        if self.layers == 0 {
            return Err(crate::QaoaError::InvalidConfig { message: "layers must be ≥ 1".into() });
        }
        if self.shots == 0 && matches!(self.objective, ObjectiveMode::Shots) {
            return Err(crate::QaoaError::InvalidConfig {
                message: "shot-based objective needs shots ≥ 1".into(),
            });
        }
        if let SolutionPolicy::TopK(0) = self.policy {
            return Err(crate::QaoaError::InvalidConfig { message: "TopK needs k ≥ 1".into() });
        }
        if self.max_iters == 0 {
            return Err(crate::QaoaError::InvalidConfig {
                message: "optimizer budget must be ≥ 1".into(),
            });
        }
        if !self.rhobeg.is_finite() || self.rhobeg < COBYLA_RHOEND {
            return Err(crate::QaoaError::InvalidConfig {
                message: format!(
                    "rhobeg must be finite and ≥ {COBYLA_RHOEND:e} (COBYLA's final radius), got {}",
                    self.rhobeg
                ),
            });
        }
        if let Some(v) = &self.initial_params {
            if v.len() != 2 * self.layers {
                return Err(crate::QaoaError::InvalidConfig {
                    message: format!("initial params need length 2p = {}", 2 * self.layers),
                });
            }
            if v.iter().any(|x| !x.is_finite()) {
                return Err(crate::QaoaError::InvalidConfig {
                    message: "initial params must be finite".into(),
                });
            }
        }
        Ok(())
    }

    /// Default initial parameters: the trotterized-annealing ramp
    /// `γ_l = (l+1)/p · Δ`, `β_l = (1 − (l+1)/p) · Δ` with `Δ = 0.75` —
    /// a standard heuristic start for MaxCut QAOA.
    pub fn default_initial_params(&self) -> Vec<f64> {
        let p = self.layers;
        let delta = 0.75;
        let mut v = Vec::with_capacity(2 * p);
        for l in 0..p {
            v.push(delta * (l + 1) as f64 / p as f64); // γ
        }
        for l in 0..p {
            v.push(delta * (1.0 - (l + 1) as f64 / p as f64).max(0.05)); // β
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_iteration_schedule() {
        assert_eq!(QaoaConfig::paper_iterations(3), 30);
        assert_eq!(QaoaConfig::paper_iterations(8), 100);
        assert_eq!(QaoaConfig::paper_iterations(5), 58);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let c = QaoaConfig { layers: 0, ..QaoaConfig::default() };
        assert!(c.validate().is_err());
        let c = QaoaConfig { shots: 0, ..QaoaConfig::default() };
        assert!(c.validate().is_err());
        let c = QaoaConfig { policy: SolutionPolicy::TopK(0), ..QaoaConfig::default() };
        assert!(c.validate().is_err());
        let c = QaoaConfig { initial_params: Some(vec![0.1; 3]), ..QaoaConfig::default() };
        assert!(c.validate().is_err());
        // COBYLA cannot start below its final radius, or from NaN/inf
        for rhobeg in [0.0, 5e-5, -0.5, f64::NAN, f64::INFINITY] {
            assert!(QaoaConfig { rhobeg, ..QaoaConfig::default() }.validate().is_err(), "{rhobeg}");
        }
        let mut params = QaoaConfig::default().default_initial_params();
        params[1] = f64::NAN;
        let c = QaoaConfig { initial_params: Some(params), ..QaoaConfig::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn default_is_valid() {
        assert!(QaoaConfig::default().validate().is_ok());
        assert!(QaoaConfig { rhobeg: COBYLA_RHOEND, ..QaoaConfig::default() }.validate().is_ok());
    }

    #[test]
    fn initial_ramp_has_right_shape() {
        let c = QaoaConfig { layers: 4, ..QaoaConfig::default() };
        let v = c.default_initial_params();
        assert_eq!(v.len(), 8);
        // γ increases, β decreases
        assert!(v[0] < v[3]);
        assert!(v[4] > v[7]);
    }
}
