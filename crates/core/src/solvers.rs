//! Sub-graph solver configuration — the run-time quantum/classical
//! decision mechanism the paper investigates.
//!
//! [`SubSolver`] is a *configuration* enum: each variant holds backend
//! settings and [`SubSolver::to_backend`] constructs the corresponding
//! [`MaxCutSolver`] trait object from its home crate (`qq-qaoa`, `qq-gw`,
//! `qq-classical`). The orchestrator in [`crate::qaoa2`] dispatches only
//! through the trait, so backends added outside this crate plug in via
//! [`SubSolver::Custom`] (any boxed/arc'd `MaxCutSolver`) or through the
//! [`crate::registry::SolverRegistry`] — no edits here required.

use std::sync::Arc;

use qq_classical::annealing::AnnealingSchedule;
use qq_classical::{AnnealingSolver, CutResult, ExactSolver, LocalSearchSolver, RandomSolver};
use qq_graph::{BestOf, BoxedSolver, Cut, Graph, MaxCutSolver, SolverError};
use qq_gw::{GwConfig, GwSolver};
use qq_hpc::HeterogeneousPool;
use qq_qaoa::{QaoaConfig, QaoaGridSolver, QaoaSolver, RqaoaSolver};

/// A dynamically supplied backend (the escape hatch for solvers defined
/// outside this crate). `Arc` rather than `Box` so the configuration enum
/// stays cheaply cloneable.
pub type SharedSolver = Arc<dyn MaxCutSolver>;

/// Which method solves a sub-graph MaxCut.
#[derive(Clone)]
pub enum SubSolver {
    /// QAOA on a simulated quantum device.
    Qaoa(QaoaConfig),
    /// QAOA grid search over `(p, rhobeg)` — the paper's per-sub-graph
    /// procedure for Fig. 4 ("analyzed with the same parameter grid search
    /// from before, and the QAOA solution with the highest MaxCut value is
    /// stored").
    QaoaGrid {
        /// Layer counts to scan.
        ps: Vec<usize>,
        /// `rhobeg` values to scan.
        rhobegs: Vec<f64>,
        /// Template configuration (seed, shots, policy, …).
        base: QaoaConfig,
    },
    /// Goemans–Williamson (classical).
    Gw(GwConfig),
    /// Solve with both QAOA and GW, keep the better cut — the hybrid
    /// "Best" series of Fig. 4.
    Best {
        /// QAOA settings.
        qaoa: QaoaConfig,
        /// GW settings.
        gw: GwConfig,
    },
    /// Best of `trials` random bipartitions.
    Random {
        /// Number of random cuts to draw.
        trials: usize,
    },
    /// One-exchange local search.
    LocalSearch,
    /// Simulated annealing.
    Annealing(AnnealingSchedule),
    /// Recursive QAOA (Bravyi et al.) — the non-local variant the paper
    /// notes "can also be leveraged using QAOA² to get a good global
    /// solution for very large problems".
    Rqaoa(qq_qaoa::RqaoaConfig),
    /// Exact enumeration (≤ 30 nodes) — ground truth for ablations.
    Exact,
    /// Any externally supplied [`MaxCutSolver`]: the open end of the
    /// backend layer. Build one with [`SubSolver::custom`] or via the
    /// `From` impls for boxed/arc'd trait objects.
    Custom(SharedSolver),
    /// A heterogeneous backend set routed by capability (Fig. 2's mixed
    /// quantum/classical worker pool): quantum members take every
    /// instance their caps admit, everything else degrades to the
    /// classical members. The orchestrator hands the members to the
    /// execution engine individually ([`SubSolver::to_pool`]); as a
    /// plain backend ([`SubSolver::to_backend`]) the set routes one
    /// instance at a time.
    Pool(Vec<SubSolver>),
}

impl std::fmt::Debug for SubSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubSolver::Qaoa(cfg) => f.debug_tuple("Qaoa").field(cfg).finish(),
            SubSolver::QaoaGrid { ps, rhobegs, base } => f
                .debug_struct("QaoaGrid")
                .field("ps", ps)
                .field("rhobegs", rhobegs)
                .field("base", base)
                .finish(),
            SubSolver::Gw(cfg) => f.debug_tuple("Gw").field(cfg).finish(),
            SubSolver::Best { qaoa, gw } => {
                f.debug_struct("Best").field("qaoa", qaoa).field("gw", gw).finish()
            }
            SubSolver::Random { trials } => {
                f.debug_struct("Random").field("trials", trials).finish()
            }
            SubSolver::LocalSearch => f.write_str("LocalSearch"),
            SubSolver::Annealing(s) => f.debug_tuple("Annealing").field(s).finish(),
            SubSolver::Rqaoa(cfg) => f.debug_tuple("Rqaoa").field(cfg).finish(),
            SubSolver::Exact => f.write_str("Exact"),
            SubSolver::Custom(s) => f.debug_tuple("Custom").field(&s.label()).finish(),
            SubSolver::Pool(members) => f.debug_tuple("Pool").field(members).finish(),
        }
    }
}

impl SubSolver {
    /// Short label for reports. Matches the label of the backend
    /// [`SubSolver::to_backend`] constructs.
    pub fn label(&self) -> &str {
        match self {
            SubSolver::Qaoa(_) => "qaoa",
            SubSolver::QaoaGrid { .. } => "qaoa-grid",
            SubSolver::Gw(_) => "gw",
            SubSolver::Best { .. } => "best",
            SubSolver::Random { .. } => "random",
            SubSolver::LocalSearch => "local-search",
            SubSolver::Annealing(_) => "annealing",
            SubSolver::Rqaoa(_) => "rqaoa",
            SubSolver::Exact => "exact",
            SubSolver::Custom(s) => s.label(),
            SubSolver::Pool(_) => "pool",
        }
    }

    /// Reject configurations that cannot build a working backend: empty
    /// pools, at any nesting depth, and QAOA settings
    /// [`QaoaConfig::validate`] rejects (for a grid, every cell's).
    /// Called by `qq_core::solve` before any backend is constructed so
    /// the failure is a config error, not a panic mid-solve.
    pub fn validate(&self) -> Result<(), crate::Qaoa2Error> {
        let qaoa = match self {
            SubSolver::Qaoa(cfg) | SubSolver::Best { qaoa: cfg, .. } => cfg.validate(),
            SubSolver::QaoaGrid { ps, rhobegs, base } => {
                QaoaGridSolver { ps: ps.clone(), rhobegs: rhobegs.clone(), base: base.clone() }
                    .validate()
            }
            SubSolver::Rqaoa(cfg) => cfg.validate(),
            SubSolver::Pool(members) => {
                if members.is_empty() {
                    return Err(crate::Qaoa2Error::InvalidConfig(
                        "solver pool needs at least one member".into(),
                    ));
                }
                for m in members {
                    m.validate()?;
                }
                Ok(())
            }
            _ => Ok(()),
        };
        Ok(qaoa.map_err(SolverError::from)?)
    }

    /// Wrap an externally defined backend.
    pub fn custom(solver: impl MaxCutSolver + 'static) -> Self {
        SubSolver::Custom(Arc::new(solver))
    }

    /// Construct the backend this configuration describes.
    ///
    /// Enum variants build their implementation from its home crate;
    /// [`SubSolver::Custom`] hands back the wrapped instance. Call once
    /// per batch of solves, not per solve — grid and hybrid backends are
    /// cheap to build but not free.
    pub fn to_backend(&self) -> SharedSolver {
        match self {
            SubSolver::Qaoa(cfg) => Arc::new(QaoaSolver { config: cfg.clone() }),
            SubSolver::QaoaGrid { ps, rhobegs, base } => Arc::new(QaoaGridSolver {
                ps: ps.clone(),
                rhobegs: rhobegs.clone(),
                base: base.clone(),
            }),
            SubSolver::Gw(cfg) => Arc::new(GwSolver { config: *cfg }),
            SubSolver::Best { qaoa, gw } => Arc::new(BestOf::new(vec![
                Box::new(QaoaSolver { config: qaoa.clone() }) as BoxedSolver,
                Box::new(GwSolver { config: *gw }),
            ])),
            SubSolver::Random { trials } => Arc::new(RandomSolver { trials: *trials }),
            SubSolver::LocalSearch => Arc::new(LocalSearchSolver),
            SubSolver::Annealing(schedule) => Arc::new(AnnealingSolver { schedule: *schedule }),
            SubSolver::Rqaoa(cfg) => Arc::new(RqaoaSolver { config: cfg.clone() }),
            SubSolver::Exact => Arc::new(ExactSolver),
            SubSolver::Custom(solver) => Arc::clone(solver),
            SubSolver::Pool(_) => Arc::new(self.to_pool()),
        }
    }

    /// Construct the backend *pool* this configuration describes — what
    /// the QAOA² orchestrator hands to the execution engine per level.
    ///
    /// [`SubSolver::Pool`] exposes its members individually so the
    /// engine can route each sub-graph by capability; every other
    /// variant is a single-member pool. Nested pools are **flattened**
    /// (depth-first, preserving order): routing quantum-first over the
    /// leaves picks the same backend a nested pool would, and the
    /// engine's per-class accounting then sees the real quantum/classical
    /// split instead of one opaque "quantum" composite.
    ///
    /// Panics on an empty [`SubSolver::Pool`] (a pool needs a member);
    /// call [`SubSolver::validate`] first to surface that as a config
    /// error instead — every orchestrator entry point does.
    pub fn to_pool(&self) -> HeterogeneousPool {
        match self {
            SubSolver::Pool(_) => {
                let mut members = Vec::new();
                self.collect_pool_members(&mut members);
                HeterogeneousPool::new(members)
            }
            other => HeterogeneousPool::single(other.to_backend()),
        }
    }

    fn collect_pool_members(&self, out: &mut Vec<SharedSolver>) {
        match self {
            SubSolver::Pool(members) => {
                for m in members {
                    m.collect_pool_members(out);
                }
            }
            other => out.push(other.to_backend()),
        }
    }
}

impl From<SharedSolver> for SubSolver {
    fn from(solver: SharedSolver) -> Self {
        SubSolver::Custom(solver)
    }
}

impl From<BoxedSolver> for SubSolver {
    fn from(solver: BoxedSolver) -> Self {
        SubSolver::Custom(Arc::from(solver))
    }
}

impl From<SolverError> for crate::Qaoa2Error {
    fn from(e: SolverError) -> Self {
        match e {
            SolverError::InvalidConfig(m) => crate::Qaoa2Error::InvalidConfig(m),
            other => crate::Qaoa2Error::Solver(other.to_string()),
        }
    }
}

/// Solve one sub-graph through an already-built backend, with the
/// orchestrator's uniform guards (empty graphs short-circuit, capability
/// envelopes are enforced before dispatch).
pub fn solve_with_backend(
    g: &Graph,
    backend: &dyn MaxCutSolver,
    seed: u64,
) -> Result<CutResult, crate::Qaoa2Error> {
    if g.num_nodes() == 0 {
        return Ok(CutResult::new(Cut::new(0), g));
    }
    backend.check_instance(g)?;
    Ok(backend.solve(g, seed)?)
}

/// Solve one sub-graph. `seed` perturbs every stochastic component so
/// repeated sub-problems explore independently while staying reproducible.
///
/// Convenience wrapper building the backend per call; batch callers (the
/// QAOA² level loop) build once via [`SubSolver::to_backend`] and use
/// [`solve_with_backend`].
pub fn solve_subgraph(
    g: &Graph,
    solver: &SubSolver,
    seed: u64,
) -> Result<CutResult, crate::Qaoa2Error> {
    solver.validate()?;
    solve_with_backend(g, solver.to_backend().as_ref(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qq_graph::generators::{self, WeightKind};
    use qq_graph::SolverCaps;

    fn small_graph(seed: u64) -> Graph {
        generators::erdos_renyi(9, 0.4, WeightKind::Uniform, seed)
    }

    #[test]
    fn every_solver_returns_valid_cut() {
        let g = small_graph(4);
        let solvers = [
            SubSolver::Qaoa(QaoaConfig { layers: 1, max_iters: 12, ..QaoaConfig::default() }),
            SubSolver::Gw(GwConfig::default()),
            SubSolver::Best {
                qaoa: QaoaConfig { layers: 1, max_iters: 12, ..QaoaConfig::default() },
                gw: GwConfig::default(),
            },
            SubSolver::Random { trials: 8 },
            SubSolver::LocalSearch,
            SubSolver::Annealing(AnnealingSchedule::default()),
            SubSolver::Exact,
        ];
        let exact = qq_classical::exact_maxcut(&g).value;
        for s in &solvers {
            let r = solve_subgraph(&g, s, 7).unwrap();
            assert_eq!(r.cut.len(), 9, "{}", s.label());
            assert!((r.cut.value(&g) - r.value).abs() < 1e-9, "{}", s.label());
            assert!(r.value <= exact + 1e-9, "{} exceeded the optimum", s.label());
        }
    }

    #[test]
    fn best_dominates_both_components() {
        let g = small_graph(11);
        let qaoa = QaoaConfig { layers: 2, max_iters: 20, ..QaoaConfig::default() };
        let gw = GwConfig::default();
        let q = solve_subgraph(&g, &SubSolver::Qaoa(qaoa.clone()), 3).unwrap();
        let c = solve_subgraph(&g, &SubSolver::Gw(gw), 3).unwrap();
        let b = solve_subgraph(&g, &SubSolver::Best { qaoa, gw }, 3).unwrap();
        assert!(b.value >= q.value - 1e-12);
        assert!(b.value >= c.value - 1e-12);
    }

    #[test]
    fn grid_never_below_single_cell() {
        let g = small_graph(2);
        let base = QaoaConfig::default();
        let single = solve_subgraph(
            &g,
            &SubSolver::Qaoa(QaoaConfig { layers: 3, rhobeg: 0.5, ..base.clone() }),
            5,
        )
        .unwrap();
        let grid = solve_subgraph(
            &g,
            &SubSolver::QaoaGrid { ps: vec![3], rhobegs: vec![0.5], base: base.clone() },
            5,
        )
        .unwrap();
        // identical cell → identical result
        assert_eq!(grid.value, single.value);
    }

    #[test]
    fn validate_rejects_bad_qaoa_settings_in_every_quantum_variant() {
        let bad = QaoaConfig { rhobeg: 5e-5, ..QaoaConfig::default() };
        let good = QaoaConfig::default();
        for s in [
            SubSolver::Qaoa(bad.clone()),
            SubSolver::Best { qaoa: bad.clone(), gw: GwConfig::default() },
            SubSolver::QaoaGrid { ps: vec![2, 3], rhobegs: vec![0.5, -0.5], base: good.clone() },
            SubSolver::QaoaGrid { ps: vec![3], rhobegs: vec![f64::NAN], base: good.clone() },
            SubSolver::Rqaoa(qq_qaoa::RqaoaConfig { qaoa: bad.clone(), stop_size: 4 }),
            SubSolver::Pool(vec![SubSolver::LocalSearch, SubSolver::Qaoa(bad.clone())]),
        ] {
            assert!(
                matches!(s.validate(), Err(crate::Qaoa2Error::InvalidConfig(_))),
                "{s:?} passed validation"
            );
        }
        let grid = SubSolver::QaoaGrid { ps: vec![2, 3], rhobegs: vec![0.1, 0.5], base: good };
        assert!(grid.validate().is_ok());
    }

    #[test]
    fn empty_grid_rejected() {
        let g = small_graph(1);
        let r = solve_subgraph(
            &g,
            &SubSolver::QaoaGrid { ps: vec![], rhobegs: vec![0.1], base: QaoaConfig::default() },
            0,
        );
        assert!(r.is_err());
    }

    #[test]
    fn labels_are_stable() {
        assert_eq!(SubSolver::LocalSearch.label(), "local-search");
        assert_eq!(SubSolver::Exact.label(), "exact");
        // the config enum and the backend it builds must agree
        for s in [
            SubSolver::Qaoa(QaoaConfig::default()),
            SubSolver::Gw(GwConfig::default()),
            SubSolver::Random { trials: 2 },
            SubSolver::LocalSearch,
            SubSolver::Annealing(AnnealingSchedule::default()),
            SubSolver::Exact,
        ] {
            assert_eq!(s.label(), s.to_backend().label());
        }
    }

    #[test]
    fn rqaoa_subsolver_inside_qaoa2() {
        // the paper's suggested combination: RQAOA as the QAOA² sub-solver
        let g = qq_graph::generators::erdos_renyi(26, 0.2, WeightKind::Uniform, 17);
        let cfg = crate::Qaoa2Config {
            max_qubits: 9,
            solver: SubSolver::Rqaoa(qq_qaoa::RqaoaConfig {
                qaoa: QaoaConfig { layers: 1, max_iters: 25, ..QaoaConfig::default() },
                stop_size: 4,
            }),
            coarse_solver: SubSolver::LocalSearch,
            parallelism: crate::Parallelism::Sequential,
            seed: 3,
            ..crate::Qaoa2Config::default()
        };
        let res = crate::solve(&g, &cfg).unwrap();
        assert_eq!(res.cut.len(), 26);
        assert!(res.cut_value >= g.total_weight() / 2.0 * 0.9);
    }

    /// A backend defined entirely outside the workspace's solver crates:
    /// proves the dispatch layer is open (no `qq-core` edits needed).
    struct EveryOther;

    impl MaxCutSolver for EveryOther {
        fn label(&self) -> &str {
            "every-other"
        }

        fn solve(&self, g: &Graph, _seed: u64) -> Result<CutResult, SolverError> {
            Ok(CutResult::new(Cut::from_fn(g.num_nodes(), |v| v % 2 == 0), g))
        }

        fn capabilities(&self) -> SolverCaps {
            SolverCaps { max_nodes: Some(64), ..SolverCaps::default() }
        }
    }

    #[test]
    fn custom_backend_plugs_into_subsolver() {
        let g = small_graph(6);
        let s = SubSolver::custom(EveryOther);
        assert_eq!(s.label(), "every-other");
        let r = solve_subgraph(&g, &s, 0).unwrap();
        assert_eq!(r.cut.len(), 9);
        // and through the whole QAOA² pipeline as a coarse solver
        let big = generators::erdos_renyi(40, 0.15, WeightKind::Uniform, 9);
        let cfg = crate::Qaoa2Config {
            max_qubits: 8,
            solver: SubSolver::LocalSearch,
            coarse_solver: SubSolver::custom(EveryOther),
            parallelism: crate::Parallelism::Sequential,
            seed: 0,
            ..crate::Qaoa2Config::default()
        };
        let res = crate::solve(&big, &cfg).unwrap();
        assert_eq!(res.cut.len(), 40);
    }

    #[test]
    fn boxed_trait_object_converts_into_subsolver() {
        let boxed: BoxedSolver = Box::new(EveryOther);
        let s: SubSolver = boxed.into();
        assert_eq!(s.label(), "every-other");
        let g = small_graph(3);
        assert_eq!(solve_subgraph(&g, &s, 1).unwrap().cut.len(), 9);
    }

    #[test]
    fn caps_enforced_before_dispatch() {
        let g = generators::erdos_renyi(70, 0.05, WeightKind::Uniform, 2);
        let r = solve_subgraph(&g, &SubSolver::custom(EveryOther), 0);
        assert!(matches!(r, Err(crate::Qaoa2Error::Solver(_))), "{r:?}");
    }

    #[test]
    fn nested_pools_flatten_to_their_leaves() {
        // a pool inside a pool must expose its leaf members to the
        // engine, or per-class accounting would book the whole inner
        // composite as one quantum backend
        let nested = SubSolver::Pool(vec![
            SubSolver::Pool(vec![SubSolver::Exact, SubSolver::LocalSearch]),
            SubSolver::Random { trials: 2 },
        ]);
        let pool = nested.to_pool();
        let labels: Vec<&str> = pool.members().iter().map(|m| m.label()).collect();
        assert_eq!(labels, vec!["exact", "local-search", "random"]);
        // flattening does not change what a single-instance solve picks
        let g = small_graph(9);
        let flat_cut = pool.solve(&g, 3).unwrap();
        let nested_cut = nested.to_backend().solve(&g, 3).unwrap();
        assert_eq!(flat_cut.cut, nested_cut.cut);
    }

    #[test]
    fn empty_pool_rejected_before_backend_construction() {
        // solve_subgraph validates, so the empty pool is a config error
        // rather than the HeterogeneousPool constructor panic
        let g = small_graph(1);
        let r = solve_subgraph(&g, &SubSolver::Pool(vec![]), 0);
        assert!(matches!(r, Err(crate::Qaoa2Error::InvalidConfig(_))), "{r:?}");
        // nested inside a non-empty pool too
        let nested = SubSolver::Pool(vec![SubSolver::LocalSearch, SubSolver::Pool(vec![])]);
        assert!(solve_subgraph(&g, &nested, 0).is_err());
    }
}
