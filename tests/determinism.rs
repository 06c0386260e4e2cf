//! Cross-thread-count determinism suite.
//!
//! The vendored rayon promises bit-identical floating-point results at
//! any `RAYON_NUM_THREADS` (fixed power-of-two split tree; see
//! `crates/vendor/rayon/src/lib.rs` and DESIGN.md §10). This suite holds
//! it to that: a battery spanning the simulator (flat + blocked), the
//! QAOA landscape evaluation, the full QAOA² driver in `Threads` mode
//! (including one end-to-end run per partition strategy with
//! refinement on, plus per-instance `Auto` selection and a per-level
//! schedule — strategy *choices* fold in alongside the cuts), the
//! large-gated parallel divide (a 51k-node graph through the parallel
//! CSR finalize, snapshot-sweep label propagation, two-phase matching,
//! and score/apply refinement — effective label, community structure,
//! and a derived cut all fold in), and
//! property-harness-style seeded draws is folded
//! into one digest of exact `f64` bit patterns, and the digest is
//! compared across separate processes pinned to 1, 2, and N worker
//! threads.
//!
//! (Separate processes because the pool is global and sized once per
//! process — the only honest way to vary the thread count.)

use qaoa2_suite::prelude::*;
use qq_circuit::{AnsatzParams, CostModel};
use qq_qaoa::executor::build_state_fused;
use qq_qaoa::CostTable;
use qq_sim::BlockedState;

/// FNV-1a over 64-bit words; folds exact bit patterns, so any
/// thread-count-dependent reduction order changes the digest.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        self.0 ^= w;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Fold a label (e.g. the strategy a level actually used) as raw
    /// bytes: any platform- or thread-count-dependent strategy choice
    /// changes the digest even when the cut value happens to agree.
    fn label(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.as_bytes() {
            self.word(*b as u64);
        }
    }
}

/// Deterministic quantum-class member for the heterogeneous engine leg
/// of the battery: local search behind a capped QPU envelope.
struct CappedQuantumLocalSearch {
    cap: usize,
}

impl qq_core::MaxCutSolver for CappedQuantumLocalSearch {
    fn label(&self) -> &str {
        "toy-qpu"
    }

    fn solve(&self, g: &Graph, seed: u64) -> Result<qq_graph::CutResult, qq_core::SolverError> {
        self.check_instance(g)?;
        let r = qaoa2_suite::classical::one_exchange(g, seed);
        Ok(qq_graph::CutResult { cut: r.cut, value: r.value })
    }

    fn capabilities(&self) -> qq_core::SolverCaps {
        qq_core::SolverCaps { max_nodes: Some(self.cap), deterministic: true, quantum: true }
    }
}

/// The battery. Sizes are chosen to actually split: 2^16 amplitudes is
/// 16 element-wise chunks (grain 4096) and 4 gate-kernel chunks
/// (`PAR_GRAIN` = 2^14), and the blocked state fans out 16 chunk tasks.
fn battery_digest() -> u64 {
    let mut d = Digest::new();

    // --- qq-sim: flat statevector gate kernels + parallel reductions ---
    let n = 16;
    let mut flat = qq_sim::StateVector::plus_state(n);
    for q in 0..n {
        flat.rx(q, 0.1 + 0.05 * q as f64);
    }
    for q in 0..n - 1 {
        flat.rzz(q, q + 1, 0.2 + 0.03 * q as f64);
    }
    flat.renormalize();
    d.f64(flat.norm_sqr());
    for a in flat.amplitudes() {
        d.f64(a.re);
        d.f64(a.im);
    }

    // --- qq-sim: blocked (distributed-style) storage cross-check ---
    let mut blk = BlockedState::plus_state(n, 12).unwrap();
    for q in 0..n {
        blk.rx(q, 0.1 + 0.05 * q as f64).unwrap();
    }
    for q in 0..n - 1 {
        blk.rzz(q, q + 1, 0.2 + 0.03 * q as f64).unwrap();
    }
    d.f64(blk.norm_sqr());
    let blk_flat = blk.to_statevector();
    for a in blk_flat.amplitudes() {
        d.f64(a.re);
        d.f64(a.im);
    }

    // --- qq-circuit: the fused executor (single-sweep diagonal blocks +
    // one-qubit walls) on both engines — fused kernels are pure
    // per-amplitude functions, so their output must be bit-identical
    // across thread counts and under work stealing ---
    let fg = generators::erdos_renyi(16, 0.25, generators::WeightKind::Random01, 41);
    let fmodel = CostModel::from_maxcut(&fg);
    let fparams = AnsatzParams::new(vec![0.35, 0.6], vec![0.2, 0.45]);
    let fcircuit =
        qq_circuit::Synthesizer::new(qq_circuit::Preference::Depth).qaoa_ansatz(&fmodel, &fparams);
    let fused_flat = qq_circuit::exec::run_statevector(&fcircuit);
    for a in fused_flat.amplitudes() {
        d.f64(a.re);
        d.f64(a.im);
    }
    let fused_blk = qq_circuit::exec::run_blocked(&fcircuit, 12).unwrap().to_statevector();
    for a in fused_blk.amplitudes() {
        d.f64(a.re);
        d.f64(a.im);
    }

    // --- qq-qaoa: landscape evaluation over a (γ, β) grid ---
    let g = generators::erdos_renyi(14, 0.4, generators::WeightKind::Random01, 77);
    let table = CostTable::new(&CostModel::from_maxcut(&g));
    d.f64(table.max_value());
    // the level table itself (parallel value fill, sequential numbering)
    for z in 0..1u64 << g.num_nodes() {
        d.f64(table.value(z));
    }
    for gi in 0..4 {
        for bi in 0..4 {
            let gamma = 0.15 + 0.2 * gi as f64;
            let beta = 0.1 + 0.18 * bi as f64;
            let params = AnsatzParams::new(vec![gamma], vec![beta]);
            let state = build_state_fused(&table, &params);
            d.f64(table.expectation(&state));
        }
    }

    // --- qq-core: the full QAOA² driver with thread-parallel fan-out ---
    let big = generators::erdos_renyi(48, 0.15, generators::WeightKind::Random01, 5);
    let cfg = qq_core::Qaoa2Config {
        max_qubits: 8,
        parallelism: qq_core::Parallelism::Threads,
        seed: 9,
        ..Default::default()
    };
    let res = qq_core::solve(&big, &cfg).expect("qaoa2 solve succeeds");
    d.f64(res.cut_value);

    // --- qq-core + qq-hpc: the capability-routed heterogeneous engine
    // path (capped quantum member + classical fallback); the cut AND the
    // routing decisions must be thread-count independent ---
    let het = generators::erdos_renyi(60, 0.12, generators::WeightKind::Random01, 2);
    let cfg = qq_core::Qaoa2Config {
        max_qubits: 10,
        solver: qq_core::SubSolver::Pool(vec![
            qq_core::SubSolver::custom(CappedQuantumLocalSearch { cap: 8 }),
            qq_core::SubSolver::LocalSearch,
        ]),
        coarse_solver: qq_core::SubSolver::LocalSearch,
        parallelism: qq_core::Parallelism::Threads,
        seed: 7,
        ..Default::default()
    };
    let res = qq_core::solve(&het, &cfg).expect("heterogeneous solve succeeds");
    d.f64(res.cut_value);
    for report in &res.engine_reports {
        d.word(report.quantum.tasks as u64);
        d.word(report.classical.tasks as u64);
        d.word(report.fallbacks as u64);
    }

    // --- qq-core: every partition strategy end-to-end, refinement on —
    // partitioner choice (and the boundary polish) must be bit-stable
    // across thread counts and engines ---
    let strat_graph = generators::erdos_renyi(52, 0.14, generators::WeightKind::Random01, 13);
    for strategy in qq_core::PartitionStrategy::builtin() {
        let cfg = qq_core::Qaoa2Config {
            max_qubits: 9,
            solver: qq_core::SubSolver::LocalSearch,
            coarse_solver: qq_core::SubSolver::LocalSearch,
            partition: strategy.clone(),
            refine: qq_core::RefineConfig::full(),
            parallelism: qq_core::Parallelism::Threads,
            seed: 21,
        };
        let res = qq_core::solve(&strat_graph, &cfg).expect("strategy solve succeeds");
        d.f64(res.cut_value);
        for level in &res.levels {
            d.word(level.num_subgraphs as u64);
            d.word(level.communities_before_refine as u64);
            d.word(level.communities_after_refine as u64);
            d.f64(level.inter_weight_fraction);
            d.f64(level.balance);
            d.label(&level.strategy_effective);
            d.word(level.stall_fallback as u64);
        }
    }

    // --- qq-core: per-instance auto-selection end-to-end — both the
    // cut AND every level's strategy *choice* fold into the digest, so
    // a selection that varies by thread count or platform float noise
    // is a determinism failure, not a silent quality change; a
    // per-level schedule rides along the same way ---
    for partition in [
        qq_core::PartitionStrategy::Auto,
        qq_core::PartitionStrategy::scheduled(qq_core::PartitionSchedule::new(
            vec![qq_core::PartitionStrategy::Multilevel],
            qq_core::PartitionStrategy::Auto,
        )),
    ] {
        let cfg = qq_core::Qaoa2Config {
            max_qubits: 9,
            solver: qq_core::SubSolver::LocalSearch,
            coarse_solver: qq_core::SubSolver::LocalSearch,
            partition,
            refine: qq_core::RefineConfig::full(),
            parallelism: qq_core::Parallelism::Threads,
            seed: 33,
        };
        let res = qq_core::solve(&strat_graph, &cfg).expect("adaptive solve succeeds");
        d.f64(res.cut_value);
        for level in &res.levels {
            d.label(&level.strategy_requested);
            d.label(&level.strategy_effective);
            d.word(level.stall_fallback as u64);
            d.word(level.size_gated as u64);
            d.f64(level.inter_weight_fraction);
            d.f64(level.balance);
        }
    }

    // --- qq-core: the merge graph's exact edge list — order, endpoints,
    // and f64 weight bits. The coarse graph is rebuilt from hash-free
    // sorted accumulation (BTreeMap in build_merge_graph); folding every
    // edge pins that order across processes, where HashMap iteration
    // would differ run to run ---
    let mg = generators::erdos_renyi(44, 0.18, generators::WeightKind::Random01, 29);
    let mpart = qq_graph::partition_with_cap(&mg, 9);
    let mlocal: Vec<Cut> = mpart
        .communities()
        .iter()
        .enumerate()
        .map(|(c, members)| {
            let (sub, _) = mg.induced_subgraph(members);
            qaoa2_suite::classical::one_exchange(&sub, 101 + c as u64).cut
        })
        .collect();
    let coarse = qq_core::build_merge_graph(&mg, &mpart, &mlocal);
    d.word(coarse.num_edges() as u64);
    for e in coarse.edges() {
        d.word(e.u as u64);
        d.word(e.v as u64);
        d.f64(e.w);
    }

    // --- qq-core + qq-graph: the full large-gated divide. 51k nodes at
    // mean degree 4 crosses both the large-instance gate (snapshot-sweep
    // label propagation, two-phase matching, score/apply refinement all
    // run on the pool) and `PAR_FINALIZE_MIN_EDGES` (the generator's CSR
    // build takes the parallel finalize path). Folds the effective
    // strategy label, the gate attribution, the complete community
    // structure, the quality metrics' f64 bits, the probe's parallel
    // weight reduction, and a cut derived from the partition — so a
    // single node landing in a different community at some thread count
    // fails the cross-process comparison ---
    let lg =
        generators::erdos_renyi_fast(51_000, 4.0 / 51_000.0, generators::WeightKind::Random01, 99);
    let probe = qq_graph::auto::probe(&lg);
    d.f64(probe.positive_weight_fraction);
    d.word(probe.is_large() as u64);
    // migration-only refinement: the parallel flag/apply sweep runs,
    // while the FM swap sweep — O(n · cap · deg) by construction, ~10
    // debug-minutes at this size — stays with the property battery's
    // pooled-vs-inline parity cases on zoo-sized graphs
    let refine =
        qq_core::RefineConfig { partition_passes: 1, swap_moves: false, polish_cut: false };
    let outcome =
        qq_core::strategy::divide(&lg, 4_000, &qq_core::PartitionStrategy::Auto, 0, &refine, 7)
            .expect("large divide succeeds");
    d.label(&outcome.effective);
    d.word(outcome.size_gated as u64);
    d.word(outcome.communities_before_refine as u64);
    d.word(outcome.communities_after_refine as u64);
    d.f64(outcome.inter_weight_fraction);
    d.f64(outcome.balance);
    let mut membership = vec![0u32; lg.num_nodes()];
    for (c, members) in outcome.partition.communities().iter().enumerate() {
        for &v in members {
            membership[v as usize] = c as u32;
        }
    }
    for &c in &membership {
        d.word(c as u64);
    }
    // cut digest: side = community-index parity — any membership or
    // weight-bit drift moves this f64
    let cut = Cut::from_fn(lg.num_nodes(), |v| membership[v as usize] % 2 == 1);
    d.f64(cut.value(&lg));

    // --- property-harness-style seeded draws ---
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    for case in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(0x5eed ^ case);
        let g = generators::erdos_renyi(
            8 + (case as usize % 20),
            0.3,
            generators::WeightKind::Random01,
            rng.gen(),
        );
        let cut = Cut::from_basis_index(g.num_nodes(), rng.gen());
        d.f64(cut.value(&g));
        d.f64(g.total_weight());
    }

    d.0
}

/// Helper entry point for the subprocess runs: prints the digest in a
/// greppable form. `#[ignore]`d so the normal suite doesn't run the
/// battery three extra times; the orchestrating test invokes it with
/// `--ignored --exact`.
#[test]
#[ignore = "run explicitly by bit_identical_across_thread_counts"]
fn digest_helper() {
    println!("DETERMINISM_DIGEST={:016x}", battery_digest());
}

#[test]
fn bit_identical_across_thread_counts() {
    let local = battery_digest();
    // The steal-heavy legs flip QQ_RAYON_FORCE_STEAL: every batch lands
    // on a single deque and workers scan the *others* first, so nearly
    // every job is executed by a thief. Placement must stay semantically
    // invisible — results are combined by chunk index, never by
    // completion order — so the digest must not move.
    for (threads, force_steal) in
        [("1", false), ("2", false), ("4", false), ("2", true), ("4", true)]
    {
        let digest = subprocess_digest(threads, force_steal);
        assert_eq!(
            digest, local,
            "results differ between this process and RAYON_NUM_THREADS={threads} \
             force_steal={force_steal}"
        );
    }
}

/// Run the `digest_helper` test in a fresh process pinned to `threads`
/// workers (optionally in force-steal scheduling mode) and parse the
/// digest off its stdout.
fn subprocess_digest(threads: &str, force_steal: bool) -> u64 {
    let exe = std::env::current_exe().expect("test binary path");
    let mut cmd = std::process::Command::new(&exe);
    cmd.args(["--exact", "digest_helper", "--ignored", "--nocapture"])
        .env("RAYON_NUM_THREADS", threads);
    if force_steal {
        cmd.env("QQ_RAYON_FORCE_STEAL", "1");
    }
    let out = cmd.output().expect("spawn digest helper");
    assert!(out.status.success(), "helper failed at {threads} threads (force_steal={force_steal})");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // libtest may print the digest inline after the test name, so
    // locate the marker anywhere and take the 16 hex digits after it
    let digest = stdout
        .split_once("DETERMINISM_DIGEST=")
        .map(|(_, rest)| &rest[..16])
        .unwrap_or_else(|| panic!("no digest in helper output: {stdout}"));
    u64::from_str_radix(digest, 16).expect("hex digest")
}
