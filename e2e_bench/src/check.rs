//! The benchmark's own evaluator. It scores cuts from the edge list
//! without calling the library's scoring code, computes the references
//! no program change can move (total weight, brute-force optimum), and
//! digests cuts so runs at different pool widths can be compared bit
//! for bit.

use qq_graph::{Cut, Graph, NodeId};

/// Absolute tolerance between a reported and a re-scored cut value.
const TOLERANCE: f64 = 1e-9;

/// Sum of edge weights crossing `cut`.
pub fn score(g: &Graph, cut: &Cut) -> f64 {
    g.edges().iter().filter(|e| cut.get(e.u) != cut.get(e.v)).map(|e| e.w).sum()
}

/// Total edge weight `W`, the upper bound of any cut of a graph with
/// non-negative weights.
pub fn total_weight(g: &Graph) -> f64 {
    g.edges().iter().map(|e| e.w).sum()
}

/// Check one returned cut: it covers every node, its re-scored value
/// equals the reported one, and it does not exceed `reference`.
pub fn verify(g: &Graph, cut: &Cut, reported: f64, reference: f64) -> Result<f64, String> {
    if cut.len() != g.num_nodes() {
        return Err(format!("cut has {} entries for {} nodes", cut.len(), g.num_nodes()));
    }
    let value = score(g, cut);
    if (value - reported).abs() > TOLERANCE {
        return Err(format!("reported value {reported} but the cut scores {value}"));
    }
    if value > reference + TOLERANCE {
        return Err(format!("cut value {value} exceeds the reference {reference}"));
    }
    Ok(value)
}

/// FNV-1a over the node count and every node's side.
pub fn digest(cut: &Cut) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |byte: u8| {
        h ^= byte as u64;
        h = h.wrapping_mul(PRIME);
    };
    for byte in (cut.len() as u64).to_le_bytes() {
        mix(byte);
    }
    for v in 0..cut.len() as NodeId {
        mix(cut.get(v) as u8);
    }
    h
}

/// Exact MaxCut optimum by Gray-code enumeration: node `n-1` stays on
/// side 0 (a cut and its complement are equal), every step flips one
/// node and updates the value by that node's gain.
pub fn exact_optimum(g: &Graph) -> f64 {
    let n = g.num_nodes();
    assert!((1..=26).contains(&n), "brute force is for small registers");
    let mut adj: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    for e in g.edges() {
        adj[e.u as usize].push((e.v as usize, e.w));
        adj[e.v as usize].push((e.u as usize, e.w));
    }
    let mut side = vec![false; n];
    let mut value = 0.0f64;
    let mut best = 0.0f64;
    for step in 1u64..(1u64 << (n - 1)) {
        let v = step.trailing_zeros() as usize;
        let gain: f64 = adj[v].iter().map(|&(u, w)| if side[u] == side[v] { w } else { -w }).sum();
        side[v] = !side[v];
        value += gain;
        best = best.max(value);
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use qq_graph::generators::{self, WeightKind};

    #[test]
    fn brute_force_matches_the_library_optimum() {
        for seed in 0..4 {
            let g = generators::erdos_renyi(12, 0.3, WeightKind::Random01, seed);
            let exact = qq_classical::exact_maxcut(&g).value;
            assert!((exact_optimum(&g) - exact).abs() < 1e-9);
        }
    }

    #[test]
    fn verify_rejects_wrong_values_and_lengths() {
        let g = generators::ring(6);
        let cut = Cut::from_fn(6, |v| v % 2 == 0);
        assert_eq!(verify(&g, &cut, 6.0, 6.0), Ok(6.0));
        assert!(verify(&g, &cut, 5.0, 6.0).is_err());
        assert!(verify(&g, &cut, 6.0, 5.0).is_err());
        assert!(verify(&g, &Cut::new(5), 0.0, 6.0).is_err());
    }
}
