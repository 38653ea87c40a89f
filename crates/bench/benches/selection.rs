//! Selection-algorithm benchmarks: the paper's complexity claims.
//!
//! Algorithm 1 (lazy greedy) is effectively `O(k(|V| + |E|))`; Algorithm 3
//! (MaxSG) keeps its scores across picks, `O((|V| + |E|) log |V|)` on a
//! connected input; Algorithm 2 adds per-root BFS trees. Baselines for
//! reference.

use brokerset::{
    approx_mcbg, degree_based, greedy_mcb, max_subgraph_greedy, pagerank_based, set_cover,
    ApproxConfig,
};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use topology::{InternetConfig, Scale};

fn selection(c: &mut Criterion) {
    let net = InternetConfig::scaled(Scale::Tiny).generate(2014);
    let g = net.graph().clone();
    let k = g.node_count() / 15;

    let mut group = c.benchmark_group("selection");
    group.sample_size(20);

    group.bench_function("greedy_mcb_lazy", |b| b.iter(|| greedy_mcb(&g, k)));
    group.bench_function("maxsg", |b| b.iter(|| max_subgraph_greedy(&g, k)));
    group.bench_function("approx_mcbg_beta4", |b| {
        b.iter(|| approx_mcbg(&g, k, &ApproxConfig::paper()))
    });
    group.bench_function("degree_based", |b| b.iter(|| degree_based(&g, k)));
    group.bench_function("pagerank_based", |b| b.iter(|| pagerank_based(&g, k)));
    group.bench_function("set_cover", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        b.iter(|| set_cover(&g, &mut rng))
    });
    group.finish();
}

criterion_group!(benches, selection);
criterion_main!(benches);
