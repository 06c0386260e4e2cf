//! Spans taken at layer boundaries, from the benchmark's own code.
//!
//! Two sources feed one in-memory recorder:
//! - *backend spans*, from timing wrappers around each `MaxCutSolver`
//!   a workload uses, handed to the solve through `SubSolver::custom`;
//! - *orchestration spans*, from [`traced_solve`], a copy of
//!   `qq_core::qaoa2::solve_level` built from the same public calls.
//!
//! Spans stay in memory and are written out as a Chrome trace (open it
//! in Perfetto) when the run ends. A span's self time is its duration
//! minus the union of its children.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use qq_circuit::CostModel;
use qq_core::merge::{apply_flips, build_merge_graph};
use qq_core::{strategy, Qaoa2Config, Qaoa2Error, SubSolver};
use qq_graph::{
    boundary_nodes, extract_subgraphs, Cut, CutResult, Graph, MaxCutSolver, SolverCaps, SolverError,
};
use qq_gw::{GwConfig, GwSolver};
use qq_hpc::{ExecutionEngine, SolveJob};
use qq_qaoa::{CostTable, QaoaConfig, QaoaSolver};

/// Spans of the same solve carry its phase, so the copy's spans and the
/// wrapped real solve's spans never mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Warm-up: recorded but never aggregated.
    Warmup = 0,
    /// The `solve_level` copy.
    Copy = 1,
    /// The real `qq_core::solve` with wrapped backends.
    Real = 2,
}

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    /// `0` for a root.
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub instance: u32,
    pub phase: u8,
    pub thread: u32,
    pub args: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn dur_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }

    pub fn arg(&self, key: &str) -> f64 {
        self.args.iter().find(|(k, _)| *k == key).map_or(0.0, |&(_, v)| v)
    }
}

static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(1);
static INSTANCE: AtomicU32 = AtomicU32::new(0);
static PHASE: AtomicU8 = AtomicU8::new(Phase::Warmup as u8);
/// The open engine span: the parent of backend spans that run on pool
/// workers, whose own span stacks are empty.
static ENGINE_SPAN: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Set the instance and phase every following span is tagged with.
pub fn set_context(instance: u32, phase: Phase) {
    INSTANCE.store(instance, Ordering::Relaxed);
    PHASE.store(phase as u8, Ordering::Relaxed);
}

/// An open span; [`Open::close`] records it.
pub struct Open {
    id: u32,
    parent: u32,
    name: &'static str,
    start_ns: u64,
}

pub fn open(name: &'static str) -> Open {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied().unwrap_or_else(|| ENGINE_SPAN.load(Ordering::Relaxed));
        s.push(id);
        parent
    });
    Open { id, parent, name, start_ns: now_ns() }
}

impl Open {
    pub fn close(self, args: Vec<(&'static str, f64)>) {
        let end_ns = now_ns();
        STACK.with(|s| {
            let popped = s.borrow_mut().pop();
            debug_assert_eq!(popped, Some(self.id), "spans close in stack order");
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            instance: INSTANCE.load(Ordering::Relaxed),
            phase: PHASE.load(Ordering::Relaxed),
            thread: THREAD.with(|t| *t),
            args,
        };
        SPANS.lock().expect("span recorder poisoned").push(span);
    }
}

/// Time `f` as span `name`.
fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let span = open(name);
    let out = f();
    span.close(Vec::new());
    out
}

/// Every span recorded so far.
pub fn spans() -> Vec<Span> {
    SPANS.lock().expect("span recorder poisoned").clone()
}

/// The spans as a Chrome trace-event document.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        let sep = if i + 1 < spans.len() { "," } else { "" };
        let mut args = format!(
            "\"id\":{},\"parent\":{},\"instance\":{},\"phase\":{}",
            s.id, s.parent, s.instance, s.phase
        );
        for (k, v) in &s.args {
            let _ = write!(args, ",\"{k}\":{}", crate::json_number(*v));
        }
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{{args}}}}}{sep}",
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
        );
    }
    out.push_str("]}\n");
    out
}

// ---------------------------------------------------------------- backends

/// QAOA backend wrapper. It calls `qq_qaoa::solve` the way
/// `qq_qaoa::QaoaSolver` does (same seed mixing, same capability
/// check), so the per-call counts that `CutResult` drops stay visible.
struct QaoaProbe {
    backend: QaoaSolver,
}

/// Counts of one QAOA call: optimizer evaluations, evaluations that
/// improved the running best, and ansatz layer applications (each one
/// sweep over the `2^n` state; the final state build counts as one more
/// evaluation).
fn qaoa_args(g: &Graph, cfg: &QaoaConfig, r: &qq_qaoa::QaoaResult) -> Vec<(&'static str, f64)> {
    let improving = r.history.iter().enumerate().filter(|&(i, h)| i == 0 || *h < r.history[i - 1]);
    let sweeps = ((r.evals + 1) * 2 * cfg.layers) as f64;
    let amplitudes = (1u64 << g.num_nodes().min(63)) as f64;
    vec![
        ("evals", r.evals as f64),
        ("improving", improving.count() as f64),
        ("sweeps", sweeps),
        ("bytes", sweeps * amplitudes * 16.0),
    ]
}

/// One `qq_qaoa::solve` call as a `qaoa` span, then its certificate:
/// the cut over the exact optimum the cost table yields, as a `check`
/// span (benchmark work). With `root`, the `qaoa` span alone is wrapped
/// in a `solve` root: the direct `table1-qaoa` path.
fn traced_qaoa(g: &Graph, cfg: &QaoaConfig, root: bool) -> Result<CutResult, String> {
    let root = root.then(|| open("solve"));
    let span = open("qaoa");
    let out = qq_qaoa::solve(g, cfg);
    let args = out.as_ref().map(|r| qaoa_args(g, cfg, r)).unwrap_or_default();
    span.close(args);
    if let Some(root) = root {
        root.close(Vec::new());
    }
    let r = out.map_err(|e| e.to_string())?;
    let check = open("check");
    let max = CostTable::new(&CostModel::from_maxcut(g)).max_value();
    let ratio = if max > 0.0 { r.best.value / max } else { 1.0 };
    check.close(vec![("sub_ratio", ratio)]);
    Ok(r.best)
}

/// A traced direct QAOA solve (the `table1-qaoa` path).
pub fn traced_direct_qaoa(g: &Graph, cfg: &QaoaConfig) -> Result<CutResult, String> {
    traced_qaoa(g, cfg, true)
}

impl MaxCutSolver for QaoaProbe {
    fn label(&self) -> &str {
        self.backend.label()
    }

    fn solve(&self, g: &Graph, seed: u64) -> Result<CutResult, SolverError> {
        self.check_instance(g)?;
        let cfg =
            QaoaConfig { seed: self.backend.config.seed ^ seed, ..self.backend.config.clone() };
        traced_qaoa(g, &cfg, false).map_err(SolverError::Backend)
    }

    fn capabilities(&self) -> SolverCaps {
        self.backend.capabilities()
    }
}

/// GW backend wrapper: calls `qq_gw::goemans_williamson` the way
/// `qq_gw::GwSolver` does, keeping the SDP sweep count.
struct GwProbe {
    backend: GwSolver,
}

impl MaxCutSolver for GwProbe {
    fn label(&self) -> &str {
        self.backend.label()
    }

    fn solve(&self, g: &Graph, seed: u64) -> Result<CutResult, SolverError> {
        let cfg = GwConfig { seed: self.backend.config.seed ^ seed, ..self.backend.config };
        let span = open("gw");
        let r = qq_gw::goemans_williamson(g, &cfg);
        span.close(vec![("sweeps", r.sweeps as f64)]);
        Ok(r.best)
    }

    fn capabilities(&self) -> SolverCaps {
        self.backend.capabilities()
    }
}

/// Plain timing wrapper around any other backend.
struct Probe {
    inner: Arc<dyn MaxCutSolver>,
    layer: &'static str,
}

impl MaxCutSolver for Probe {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn solve(&self, g: &Graph, seed: u64) -> Result<CutResult, SolverError> {
        let span = open(self.layer);
        let out = self.inner.solve(g, seed);
        span.close(Vec::new());
        out
    }

    fn capabilities(&self) -> SolverCaps {
        self.inner.capabilities()
    }

    fn check_instance(&self, g: &Graph) -> Result<(), SolverError> {
        self.inner.check_instance(g)
    }
}

/// The same solver configuration with every backend wrapped. Labels and
/// capabilities are forwarded, so routing does not change.
fn wrap(solver: &SubSolver) -> Result<SubSolver, String> {
    Ok(match solver {
        SubSolver::Qaoa(config) => {
            SubSolver::custom(QaoaProbe { backend: QaoaSolver { config: config.clone() } })
        }
        SubSolver::Gw(config) => {
            SubSolver::custom(GwProbe { backend: GwSolver { config: *config } })
        }
        SubSolver::LocalSearch => {
            SubSolver::custom(Probe { inner: solver.to_backend(), layer: "local_search" })
        }
        other => return Err(format!("no timing wrapper for the {} backend", other.label())),
    })
}

/// `cfg` with both solver slots wrapped.
pub fn wrapped(cfg: &Qaoa2Config) -> Result<Qaoa2Config, String> {
    Ok(Qaoa2Config {
        solver: wrap(&cfg.solver)?,
        coarse_solver: wrap(&cfg.coarse_solver)?,
        ..cfg.clone()
    })
}

// ---------------------------------------------------------- orchestration

/// Copy of the library's private per-(level, index) seed derivation.
fn mix_seed(seed: u64, level: u64, index: u64) -> u64 {
    let mut z = seed ^ (level.wrapping_mul(0x9e37_79b9_7f4a_7c15)) ^ (index << 17);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `qq_core::solve` rebuilt from its public calls, with a span around
/// each call into a layer. `cfg` should already carry wrapped backends
/// ([`wrapped`]) so sub-solves are timed too. Its cut must equal
/// `qq_core::solve`'s bit for bit; the caller checks that.
pub fn traced_solve(g: &Graph, cfg: &Qaoa2Config) -> Result<Cut, Qaoa2Error> {
    let root = open("solve");
    let out = (|| {
        if cfg.max_qubits < 2 {
            return Err(Qaoa2Error::InvalidConfig("max_qubits must be ≥ 2".into()));
        }
        cfg.solver.validate()?;
        cfg.coarse_solver.validate()?;
        let engine = cfg.parallelism.to_engine()?;
        let cut = level(g, cfg, engine.as_ref(), 0)?;
        std::hint::black_box(cut.value(g));
        Ok(cut)
    })();
    root.close(Vec::new());
    out
}

/// Time one `solve_batch` call as the `engine` span; backend spans on
/// pool workers hang below it.
fn engine_batch(
    engine: &dyn ExecutionEngine,
    pool: &qq_hpc::HeterogeneousPool,
    jobs: &[SolveJob<'_>],
) -> Result<Vec<Cut>, Qaoa2Error> {
    let span = open("engine");
    ENGINE_SPAN.store(span.id, Ordering::Relaxed);
    let out = engine.solve_batch(pool, jobs);
    ENGINE_SPAN.store(0, Ordering::Relaxed);
    let args = match &out {
        Ok(o) => vec![("jobs", jobs.len() as f64), ("fallbacks", o.report.fallbacks as f64)],
        Err(_) => Vec::new(),
    };
    span.close(args);
    Ok(out?.results.into_iter().map(|r| r.cut).collect())
}

fn level(
    g: &Graph,
    cfg: &Qaoa2Config,
    engine: &dyn ExecutionEngine,
    depth: usize,
) -> Result<Cut, Qaoa2Error> {
    let span = open("level");
    let out = level_body(g, cfg, engine, depth);
    span.close(vec![("depth", depth as f64), ("nodes", g.num_nodes() as f64)]);
    out
}

fn level_body(
    g: &Graph,
    cfg: &Qaoa2Config,
    engine: &dyn ExecutionEngine,
    depth: usize,
) -> Result<Cut, Qaoa2Error> {
    let config = if depth == 0 { &cfg.solver } else { &cfg.coarse_solver };
    let pool = config.to_pool();

    if g.num_nodes() <= cfg.max_qubits {
        let jobs = [SolveJob { graph: g, seed: mix_seed(cfg.seed, depth as u64, 0) }];
        let mut cuts = engine_batch(engine, &pool, &jobs)?;
        return Ok(cuts.pop().expect("one job in, one result out"));
    }

    let span = open("divide");
    let divided = strategy::divide(g, cfg.max_qubits, &cfg.partition, depth, &cfg.refine, cfg.seed);
    let args = match &divided {
        Ok(d) => vec![
            ("depth", depth as f64),
            ("size_gated", d.size_gated as u8 as f64),
            ("stall_fallback", d.stall_fallback as u8 as f64),
            ("inter_weight_fraction", d.inter_weight_fraction),
        ],
        Err(_) => Vec::new(),
    };
    span.close(args);
    let partition = divided?.partition;
    let subgraphs = timed("extract", || extract_subgraphs(g, &partition));

    let jobs: Vec<SolveJob<'_>> = subgraphs
        .iter()
        .enumerate()
        .map(|(i, sub)| SolveJob {
            graph: &sub.graph,
            seed: mix_seed(cfg.seed, depth as u64, i as u64),
        })
        .collect();
    let local_cuts = engine_batch(engine, &pool, &jobs)?;

    let span = open("merge");
    let coarse = build_merge_graph(g, &partition, &local_cuts);
    span.close(vec![("depth", depth as f64), ("coarse_nodes", coarse.num_nodes() as f64)]);
    let coarse_cut = level(&coarse, cfg, engine, depth + 1)?;
    let composed = timed("merge", || apply_flips(g, &partition, &local_cuts, &coarse_cut));
    if cfg.refine.polish_cut {
        // the composed value and W are only for `polish.cut_gain`
        let check = open("check");
        let (before, total) = (composed.value(g), g.total_weight());
        check.close(Vec::new());
        let span = open("polish");
        let boundary = boundary_nodes(g, &partition);
        let polished = qq_classical::one_exchange_from(g, composed, &boundary);
        let gain = if total > 0.0 { (polished.value - before) / total } else { 0.0 };
        span.close(vec![("depth", depth as f64), ("gain", gain)]);
        Ok(polished.cut)
    } else {
        Ok(composed)
    }
}

// ------------------------------------------------------------ aggregation

/// Self time of every span: duration minus the union of its children.
fn self_times(spans: &[&Span]) -> BTreeMap<u32, f64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.get(&s.id).cloned().unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
            for (a, b) in kids {
                let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                if b <= a {
                    continue;
                }
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered) as f64 * 1e-9)
        })
        .collect()
}

/// Per-layer figures of one phase, each per traced solve (`solves` of
/// them), keyed by metric name. `width` is the pool width the spans
/// were taken at.
pub fn layer_metrics(
    all: &[Span],
    phase: Phase,
    solves: usize,
    width: usize,
) -> Vec<(String, f64)> {
    let spans: Vec<&Span> = all.iter().filter(|s| s.phase == phase as u8).collect();
    let selfs = self_times(&spans);
    let k = solves.max(1) as f64;
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let self_of = |name: &'static str| named(name).map(|s| selfs[&s.id]).sum::<f64>();
    let dur_of = |name: &'static str| named(name).map(|s| s.dur_s()).sum::<f64>();
    let arg_sum = |name: &'static str, key: &str| named(name).map(|s| s.arg(key)).sum::<f64>();
    let count = |name: &'static str| named(name).count() as f64;
    let depth0 = |name: &'static str, key: &str| {
        named(name).filter(|s| s.arg("depth") == 0.0).map(|s| s.arg(key)).sum::<f64>()
    };

    let root = dur_of("solve");
    let share = |name: &'static str| if root > 0.0 { self_of(name) / root } else { 0.0 };
    // every child of a root or level span is a named layer (or the
    // benchmark's own `check`), so what the layers leave uncovered is the
    // self time of the roots and levels themselves
    let unattributed = self_of("solve") + self_of("level");
    let batch = dur_of("engine");
    // backend calls dispatched by the engine (the direct `table1-qaoa`
    // call has no engine span above it)
    let engines: BTreeSet<u32> = named("engine").map(|s| s.id).collect();
    let backend_busy: f64 = spans
        .iter()
        .filter(|s| matches!(s.name, "qaoa" | "gw" | "local_search") && engines.contains(&s.parent))
        .map(|s| s.dur_s())
        .sum();
    let ratios: Vec<f64> = named("check").map(|s| s.arg("sub_ratio")).collect();
    let qaoa_busy = self_of("qaoa");
    let evals = arg_sum("qaoa", "evals");

    // with no QAOA calls the minimum is +inf, which the JSON writer
    // reports as 0 like every other figure of an unused layer
    let m: Vec<(&str, f64)> = vec![
        ("io.read_s", dur_of("io") / k),
        ("io.mb_per_s", {
            let s = dur_of("io");
            if s > 0.0 {
                arg_sum("io", "bytes") / s / 1e6
            } else {
                0.0
            }
        }),
        ("divide.calls", count("divide") / k),
        ("divide.busy_s", self_of("divide") / k),
        ("divide.share", share("divide")),
        ("divide.size_gated_levels", arg_sum("divide", "size_gated") / k),
        ("divide.stall_fallbacks", arg_sum("divide", "stall_fallback") / k),
        ("divide.inter_weight_fraction", depth0("divide", "inter_weight_fraction") / k),
        ("extract.busy_s", self_of("extract") / k),
        ("engine.jobs", arg_sum("engine", "jobs") / k),
        ("engine.batch_s", batch / k),
        ("engine.busy_s", backend_busy / k),
        ("engine.wait_s", (width as f64 * batch - backend_busy) / k),
        ("engine.fallbacks", arg_sum("engine", "fallbacks") / k),
        ("qaoa.calls", count("qaoa") / k),
        ("qaoa.busy_s", qaoa_busy / k),
        ("qaoa.share", share("qaoa")),
        ("qaoa.evals", evals / k),
        ("qaoa.evals_per_s", if qaoa_busy > 0.0 { evals / qaoa_busy } else { 0.0 }),
        ("qaoa.improving_eval_ratio", {
            if evals > 0.0 {
                arg_sum("qaoa", "improving") / evals
            } else {
                0.0
            }
        }),
        ("qaoa.amp_sweeps_computed", arg_sum("qaoa", "sweeps") / k),
        ("qaoa.bytes_computed", arg_sum("qaoa", "bytes") / k),
        ("qaoa.sub_ratio_min", ratios.iter().copied().fold(f64::INFINITY, f64::min)),
        ("qaoa.sub_ratio_mean", ratios.iter().sum::<f64>() / ratios.len().max(1) as f64),
        ("gw.calls", count("gw") / k),
        ("gw.busy_s", self_of("gw") / k),
        ("gw.share", share("gw")),
        ("gw.sweeps", arg_sum("gw", "sweeps") / k),
        ("local_search.calls", count("local_search") / k),
        ("local_search.busy_s", self_of("local_search") / k),
        ("merge.busy_s", self_of("merge") / k),
        ("merge.coarse_nodes", depth0("merge", "coarse_nodes") / k),
        ("polish.busy_s", self_of("polish") / k),
        ("polish.cut_gain", depth0("polish", "gain") / k),
        ("trace.unattributed_share", if root > 0.0 { unattributed / root } else { 0.0 }),
    ];
    m.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}
