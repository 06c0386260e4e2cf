//! Fused-executor equivalence suite.
//!
//! The fused path (`qq_circuit::fuse` + the `apply_fused_*` entry
//! points) must agree with the per-gate reference lowering on both
//! storage engines, for circuits exercising **every** `Gate` variant,
//! at every blocked chunk size class (fully chunked `0`, mid `2`, and
//! degenerate single-chunk `n`). Sweep accounting is held to the
//! fusion contract: one state sweep per diagonal run, never more
//! passes than the source gate count. The QAOA optimizer loop's own
//! state preparation is held to its plain per-amplitude formulation
//! bit for bit.

use qq_circuit::exec::{
    apply_fused_to_blocked, apply_fused_to_statevector, run_statevector_unfused,
};
use qq_circuit::{fuse, AnsatzParams, Circuit, CostModel, Gate, Preference, Synthesizer};
use qq_graph::generators::{self, WeightKind};
use qq_graph::Graph;
use qq_qaoa::executor::build_state_fused;
use qq_qaoa::CostTable;
use qq_sim::measure::{expectation_from_table, sample_counts};
use qq_sim::{BlockedState, StateVector, C64};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random circuit drawing uniformly over all nine gate variants.
fn random_circuit(n: usize, len: usize, seed: u64) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(n);
    for _ in 0..len {
        let q = rng.gen_range(0u32..n as u32);
        let mut r = rng.gen_range(0u32..n as u32 - 1);
        if r >= q {
            r += 1;
        }
        let t = rng.gen::<f64>() * 6.0 - 3.0;
        let gate = match rng.gen_range(0usize..9) {
            0 => Gate::H(q),
            1 => Gate::X(q),
            2 => Gate::Rx(q, t),
            3 => Gate::Ry(q, t),
            4 => Gate::Rz(q, t),
            5 => Gate::Rzz(q, r, t),
            6 => Gate::Cz(q, r),
            7 => Gate::Cnot(q, r),
            _ => Gate::GlobalPhase(t),
        };
        c.push(gate).expect("generated gates are valid");
    }
    c
}

fn assert_overlap(a: &StateVector, b: &StateVector, ctx: &str) {
    let mut overlap = qq_sim::C64::ZERO;
    for (x, y) in a.amplitudes().iter().zip(b.amplitudes()) {
        overlap += x.conj() * *y;
    }
    assert!((overlap.abs() - 1.0).abs() < 1e-9, "{ctx}: overlap = {}", overlap.abs());
}

/// Maximal diagonal runs in a gate list — the sweep budget the fused
/// executor must meet (one sweep per run).
fn diagonal_runs(c: &Circuit) -> usize {
    let mut runs = 0;
    let mut in_run = false;
    for g in c.gates() {
        match (g.is_diagonal(), in_run) {
            (true, false) => {
                runs += 1;
                in_run = true;
            }
            (false, _) => in_run = false,
            _ => {}
        }
    }
    runs
}

#[test]
fn randomized_circuits_fused_matches_unfused_flat_and_blocked() {
    let n = 7;
    for seed in 0..12u64 {
        let c = random_circuit(n, 60, 0xf05e ^ seed);
        let reference = run_statevector_unfused(&c);
        let program = fuse(&c);

        let mut flat = StateVector::zero_state(n);
        let stats = apply_fused_to_statevector(&program, &mut flat);
        assert_overlap(&reference, &flat, &format!("flat seed {seed}"));
        assert!(stats.diag_blocks <= diagonal_runs(&c), "seed {seed}");

        for chunk_qubits in [0, 2, n] {
            let mut blk = BlockedState::zero_state(n, chunk_qubits).unwrap();
            let bstats = apply_fused_to_blocked(&program, &mut blk).unwrap();
            assert_overlap(
                &reference,
                &blk.to_statevector(),
                &format!("blocked chunk {chunk_qubits} seed {seed}"),
            );
            assert_eq!(bstats.diag_blocks, stats.diag_blocks, "seed {seed}");
        }
    }
}

#[test]
fn every_gate_variant_covered_by_generator() {
    // guard the generator itself: a refactor that drops a variant would
    // silently weaken the equivalence suite
    let c = random_circuit(7, 400, 99);
    let mut names: Vec<&str> = c.gates().iter().map(|g| g.name()).collect();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names, vec!["cx", "cz", "gphase", "h", "rx", "ry", "rz", "rzz", "x"]);
}

#[test]
fn fused_sweep_accounting_meets_contract() {
    // the QAOA ansatz is the hot path the fusion targets: p diagonal
    // runs (cost layers) and p+1 walls around them
    let g = generators::erdos_renyi(10, 0.5, generators::WeightKind::Random01, 8);
    let model = CostModel::from_maxcut(&g);
    let p = 3;
    let params = AnsatzParams::new(vec![0.3, 0.8, 0.4], vec![0.2, 0.6, 0.1]);
    let circuit = Synthesizer::new(Preference::Depth).qaoa_ansatz(&model, &params);
    let program = fuse(&circuit);
    let mut s = StateVector::zero_state(circuit.num_qubits());
    let stats = apply_fused_to_statevector(&program, &mut s);

    // one sweep per diagonal run, exactly
    assert_eq!(stats.diag_blocks, diagonal_runs(&circuit));
    assert_eq!(stats.diag_blocks, p);
    // every diagonal source gate was folded
    let diag_gates = circuit.gates().iter().filter(|g| g.is_diagonal()).count();
    assert_eq!(stats.diag_gates, diag_gates);
    // the fused execution makes strictly fewer passes than gates
    assert_eq!(stats.source_gates, circuit.gates().len());
    assert!(
        stats.sweeps < stats.source_gates / 4,
        "sweeps {} vs source gates {}",
        stats.sweeps,
        stats.source_gates
    );
    // nothing in the ansatz needs the per-gate fallback
    assert_eq!(stats.unfused_gates, 0);
}

#[test]
fn fused_path_is_bit_identical_across_chunkings() {
    // the fused kernels are pure per-amplitude functions and the 1q
    // kernels share one arithmetic expression, so on Cnot-free circuits
    // (Cnot lowers differently per engine) every chunking produces
    // identical bits — not merely equivalent states
    let n = 7;
    let raw = random_circuit(n, 50, 4242);
    let mut c = Circuit::new(n);
    for &g in raw.gates() {
        let g = match g {
            Gate::Cnot(a, b) => Gate::Rzz(a, b, 0.37),
            other => other,
        };
        c.push(g).unwrap();
    }
    let program = fuse(&c);
    let mut reference = StateVector::zero_state(n);
    apply_fused_to_statevector(&program, &mut reference);
    for chunk_qubits in [0, 2, n] {
        let mut blk = BlockedState::zero_state(n, chunk_qubits).unwrap();
        apply_fused_to_blocked(&program, &mut blk).unwrap();
        let blk_flat = blk.to_statevector();
        assert_eq!(reference.amplitudes(), blk_flat.amplitudes(), "chunk {chunk_qubits}");
    }
}

/// Index of the first amplitude whose bits differ, if any.
fn first_bit_difference(a: &StateVector, b: &StateVector) -> Option<usize> {
    let same =
        |x: &C64, y: &C64| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits();
    a.amplitudes().iter().zip(b.amplitudes()).position(|(x, y)| !same(x, y))
}

/// The optimizer loop's state preparation (level-table cost layer, one
/// mixer wall per layer) against the plain per-amplitude formulation:
/// `cis(−γ·C(z))` on every amplitude, then `rx(2β)` on each qubit in
/// turn. n = 15 and 18 exceed the simulator's parallel grain (2^14), so
/// the wall's chunked and high-qubit paths run too.
#[test]
fn qaoa_loop_state_is_bit_identical_to_per_amplitude_reference() {
    let params = AnsatzParams::new(vec![0.41, 0.93], vec![0.62, 0.17]);
    for n in [6, 10, 15, 18] {
        let seed = n as u64;
        let random = generators::erdos_renyi(n, 0.3, WeightKind::Random01, seed);
        let signed = Graph::from_edges(n, random.edges().iter().map(|e| (e.u, e.v, e.w - 0.5)))
            .expect("valid edges");
        let uniform = generators::erdos_renyi(n, 0.3, WeightKind::Uniform, seed);
        for (kind, g) in [("uniform", uniform), ("random01", random), ("signed", signed)] {
            let model = CostModel::from_maxcut(&g);
            let table = CostTable::new(&model);
            let fused = build_state_fused(&table, &params);

            let values: Vec<f64> = (0..1u64 << n).map(|z| model.eval_basis(z)).collect();
            let mut reference = StateVector::plus_state(n);
            for (&gamma, &beta) in params.gammas.iter().zip(&params.betas) {
                for (a, &c) in reference.amplitudes_mut().iter_mut().zip(&values) {
                    *a *= C64::cis(-gamma * c);
                }
                for q in 0..n {
                    reference.rx(q, 2.0 * beta);
                }
            }
            let ctx = format!("n = {n}, {kind} weights");
            assert_eq!(first_bit_difference(&fused, &reference), None, "{ctx}: amplitude bits");

            // both objectives read the table as the per-state values did
            let exact = expectation_from_table(reference.amplitudes(), &values);
            assert_eq!(table.expectation(&fused).to_bits(), exact.to_bits(), "{ctx}: ⟨C⟩");
            let (shots, shot_seed) = (4096, 99);
            let counts = sample_counts(reference.amplitudes(), shots, shot_seed);
            let sum: f64 = counts.iter().map(|&(z, c)| values[z as usize] * c as f64).sum();
            let sampled = table.sampled_expectation(&fused, shots, shot_seed);
            assert_eq!(sampled.to_bits(), (sum / shots as f64).to_bits(), "{ctx}: sampled ⟨C⟩");
        }
    }
}
