//! # qq-qaoa — the QAOA MaxCut driver
//!
//! Ties the substrates together exactly the way the paper's stack does:
//! graph → Ising cost model → synthesized ansatz (`qq-circuit`) →
//! statevector execution (`qq-sim`, 4096-shot sampling) → COBYLA parameter
//! optimization (`qq-opt`) → bit-string extraction.
//!
//! Two fidelity/performance paths build the ansatz state:
//! * **gate path** — the synthesized `RZZ` circuit, gate by gate (the
//!   fidelity reference);
//! * **fused path** (the optimizer loop's) — the cost layer is diagonal,
//!   so one pass multiplies each amplitude by `e^{−iγ·C(z)}` from a
//!   precomputed [`cost::CostTable`] (the "diagonal fusion" optimization
//!   the `aer` simulator applies). The table stores a level index per
//!   basis state into the distinct cut values, so each layer evaluates
//!   one `cis` per distinct value rather than per amplitude, and the
//!   `RX(2β)` mixer runs as one cache-blocked wall
//!   ([`qq_sim::StateVector::apply_1q_wall`]). The state is bit-identical
//!   to a per-amplitude `cis` pass plus per-qubit `rx` calls, and matches
//!   the gate path up to floating-point association (verified by tests).
//!
//! Solution extraction implements the paper's policy (single highest
//! amplitude) *and* the two extensions it names as future work: inspecting
//! the top-k amplitudes, and taking the best sampled shot.
//!
//! ```
//! use qq_graph::generators;
//! use qq_qaoa::{solve, QaoaConfig};
//!
//! let g = generators::ring(6);
//! let cfg = QaoaConfig { layers: 2, seed: 7, ..QaoaConfig::default() };
//! let res = solve(&g, &cfg).unwrap();
//! assert!(res.best.value >= 4.0); // even-ring optimum is 6
//! ```

#![forbid(unsafe_code)]

pub mod backend;
pub mod config;
pub mod cost;
pub mod executor;
pub mod rqaoa;
pub mod solver;

pub use backend::{QaoaGridSolver, QaoaSolver, RqaoaSolver};
pub use config::{ObjectiveMode, QaoaConfig, SolutionPolicy};
pub use cost::CostTable;
pub use rqaoa::{rqaoa_solve, RqaoaConfig, RqaoaResult};
pub use solver::{solve, QaoaResult};

/// Errors from the QAOA driver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QaoaError {
    /// Graph too large for statevector simulation.
    TooManyQubits { requested: usize, max: usize },
    /// Configuration rejected (zero layers, zero shots, …).
    InvalidConfig { message: String },
}

impl std::fmt::Display for QaoaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QaoaError::TooManyQubits { requested, max } => {
                write!(f, "graph needs {requested} qubits; simulator supports {max}")
            }
            QaoaError::InvalidConfig { message } => write!(f, "invalid QAOA config: {message}"),
        }
    }
}

impl std::error::Error for QaoaError {}

/// Statevector ceiling for the driver: `2^26` amplitudes (1 GiB) plus the
/// cost table: a 4-byte level index per state (256 MiB) and 24 bytes per
/// distinct cut value for the value and one layer's phase — at most
/// `m + 1` values on integer weights, up to `2^25` (768 MiB) on random
/// real weights. The paper's 30–33-qubit cells need the blocked engine
/// and a bigger machine (see EXPERIMENTS.md).
pub const MAX_QAOA_QUBITS: usize = 26;
