//! The four workloads: how each seed's instances are generated, which
//! configuration solves them, and the plain (untraced) solve.

use qq_core::{PartitionStrategy, Qaoa2Config, RefineConfig, SubSolver};
use qq_graph::generators::{self, WeightKind};
use qq_graph::{Cut, Graph};
use qq_qaoa::QaoaConfig;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's Fig. 4 setting: ER(800, 0.1) under a 10-qubit budget,
    /// QAOA sub-solves, CNM divide, GW coarse solves.
    Fig4Qaoa,
    /// Paper Table 1 cells at 18 qubits, solved directly by QAOA.
    Table1Qaoa,
    /// A 10⁵-node ER graph through the size-gated divide with
    /// local-search sub-solves.
    LargeDivide,
    /// A 5 000-node ER graph through the full Auto portfolio with
    /// partition refinement and the boundary polish.
    AutoRefine,
}

/// Which instance stream an index belongs to. Warm-up instances never
/// appear among the timed ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    Warmup = 1,
    Timed = 2,
}

/// How one instance is solved.
pub enum Plan {
    /// Through `qq_core::solve`.
    Qaoa2(Box<Qaoa2Config>),
    /// Directly through `qq_qaoa::solve`.
    Qaoa(QaoaConfig),
}

/// The cut a plain solve returned.
pub struct Solved {
    pub cut: Cut,
    pub value: f64,
}

/// The Table 1 cells at n = 18: edge probability × weight kind.
const TABLE1_CELLS: [(f64, WeightKind); 4] = [
    (0.1, WeightKind::Uniform),
    (0.1, WeightKind::Random01),
    (0.2, WeightKind::Uniform),
    (0.2, WeightKind::Random01),
];

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl Workload {
    pub const ALL: [Workload; 4] =
        [Workload::Fig4Qaoa, Workload::Table1Qaoa, Workload::LargeDivide, Workload::AutoRefine];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig4Qaoa => "fig4-qaoa",
            Workload::Table1Qaoa => "table1-qaoa",
            Workload::LargeDivide => "large-divide",
            Workload::AutoRefine => "auto-refine",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed solves every run makes at least, whatever `--seconds` says.
    /// `cut_ratio` and the run digest cover exactly these instances, so
    /// both are identical across runs of one seed.
    pub fn min_timed(self) -> usize {
        match self {
            Workload::Fig4Qaoa => 6,
            Workload::Table1Qaoa => TABLE1_CELLS.len(),
            Workload::LargeDivide => 4,
            Workload::AutoRefine => 5,
        }
    }

    /// Timed instances the traced run solves (the first ones of the
    /// timed stream, so their digests match the timed runs').
    pub fn traced_instances(self) -> usize {
        match self {
            Workload::Fig4Qaoa | Workload::Table1Qaoa => 4,
            Workload::LargeDivide | Workload::AutoRefine => 2,
        }
    }

    /// Seed of instance `index` of `stream` under workload seed `seed`.
    pub fn instance_seed(self, seed: u64, stream: Stream, index: u64) -> u64 {
        let salt = self as u64 + 1;
        splitmix(splitmix(seed) ^ (salt << 56) ^ ((stream as u64) << 48) ^ index)
    }

    /// Generate the instance graph.
    pub fn graph(self, seed: u64, stream: Stream, index: u64) -> Graph {
        let s = self.instance_seed(seed, stream, index);
        match self {
            Workload::Fig4Qaoa => generators::erdos_renyi(800, 0.1, WeightKind::Uniform, s),
            Workload::Table1Qaoa => {
                let (p, kind) = TABLE1_CELLS[index as usize % TABLE1_CELLS.len()];
                generators::erdos_renyi(18, p, kind, s)
            }
            Workload::LargeDivide => {
                generators::erdos_renyi_fast(100_000, 8e-5, WeightKind::Uniform, s)
            }
            Workload::AutoRefine => {
                generators::erdos_renyi_fast(5_000, 8.0 / 5_000.0, WeightKind::Uniform, s)
            }
        }
    }

    /// The solver configuration for the instance.
    pub fn plan(self, seed: u64, stream: Stream, index: u64) -> Plan {
        let s = self.instance_seed(seed, stream, index);
        match self {
            Workload::Fig4Qaoa => Plan::Qaoa2(Box::new(Qaoa2Config {
                max_qubits: 10,
                solver: SubSolver::Qaoa(QaoaConfig::default()),
                seed: s,
                ..Qaoa2Config::default()
            })),
            Workload::Table1Qaoa => Plan::Qaoa(QaoaConfig::grid_cell(3, 0.5, s)),
            Workload::LargeDivide => Plan::Qaoa2(Box::new(Qaoa2Config {
                max_qubits: 4096,
                solver: SubSolver::LocalSearch,
                partition: PartitionStrategy::Auto,
                seed: s,
                ..Qaoa2Config::default()
            })),
            Workload::AutoRefine => Plan::Qaoa2(Box::new(Qaoa2Config {
                max_qubits: 64,
                solver: SubSolver::LocalSearch,
                partition: PartitionStrategy::Auto,
                refine: RefineConfig::full(),
                seed: s,
                ..Qaoa2Config::default()
            })),
        }
    }

    /// `true` when `cut_ratio` is measured against the brute-force
    /// optimum rather than the total weight.
    pub fn exact_reference(self) -> bool {
        self == Workload::Table1Qaoa
    }
}

/// Solve through the library's public entry point, untraced.
pub fn solve_plain(plan: &Plan, g: &Graph) -> Result<Solved, String> {
    match plan {
        Plan::Qaoa2(cfg) => qq_core::solve(g, cfg)
            .map(|r| Solved { cut: r.cut, value: r.cut_value })
            .map_err(|e| e.to_string()),
        Plan::Qaoa(cfg) => qq_qaoa::solve(g, cfg)
            .map(|r| Solved { cut: r.best.cut, value: r.best.value })
            .map_err(|e| e.to_string()),
    }
}
