//! QAOA objective-evaluation cost: fused diagonal layer vs synthesized
//! gate circuit — the optimization that makes the paper's grid searches
//! tractable. `fused_with_shots` is exactly one optimizer-loop
//! evaluation (p = 3, 4096 shots); `cost_table` is the once-per-solve
//! table build. Integer (`uniform`) and random (`random01`) weights are
//! both timed because the table's level count differs by orders of
//! magnitude between them.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qq_circuit::{AnsatzParams, CostModel, Preference};
use qq_graph::generators::{self, WeightKind};
use qq_qaoa::cost::CostTable;
use qq_qaoa::executor;

fn bench_objective(c: &mut Criterion) {
    let mut group = c.benchmark_group("qaoa_objective");
    group.sample_size(15);
    let params = AnsatzParams::new(vec![0.3, 0.5, 0.2], vec![0.4, 0.1, 0.6]);
    for &n in &[10usize, 12, 16, 20] {
        for (label, kind) in [("uniform", WeightKind::Uniform), ("random01", WeightKind::Random01)]
        {
            let g = generators::erdos_renyi(n, 0.3, kind, 3);
            let model = CostModel::from_maxcut(&g);
            let table = CostTable::new(&model);
            group.bench_with_input(
                BenchmarkId::new(format!("fused_with_shots/{label}"), n),
                &n,
                |b, _| {
                    b.iter(|| {
                        let s = executor::build_state_fused(&table, &params);
                        table.sampled_expectation(&s, 4096, 7)
                    });
                },
            );
            group.bench_with_input(
                BenchmarkId::new(format!("cost_table/{label}"), n),
                &n,
                |b, _| {
                    b.iter(|| CostTable::new(&model));
                },
            );
            if kind != WeightKind::Uniform || n > 16 {
                continue;
            }
            group.bench_with_input(BenchmarkId::new("fused", n), &n, |b, _| {
                b.iter(|| {
                    let s = executor::build_state_fused(&table, &params);
                    table.expectation(&s)
                });
            });
            group.bench_with_input(BenchmarkId::new("gate_circuit", n), &n, |b, _| {
                b.iter(|| {
                    let s = executor::build_state_circuit(&model, &params, Preference::Depth);
                    table.expectation(&s)
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_objective);
criterion_main!(benches);
