//! Micro-benchmarks of the SINR reception resolver backends — naive
//! oracle vs the aggregated backend — across transmitter densities.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dcluster_sim::{deploy, rng::Rng64, Network, ResolverKind};

fn bench_resolvers(c: &mut Criterion) {
    let mut group = c.benchmark_group("radio_resolve");
    group.sample_size(20);
    for &n in &[200usize, 800] {
        let mut rng = Rng64::new(9);
        let net = Network::builder(deploy::uniform_square(
            n,
            (n as f64 / 40.0).sqrt() * 2.0,
            &mut rng,
        ))
        .build()
        .unwrap();
        for &frac in &[0.05f64, 0.3] {
            let tx: Vec<usize> = (0..n).filter(|_| rng.chance(frac)).collect();
            for kind in ResolverKind::ALL {
                group.bench_with_input(
                    BenchmarkId::new(kind.name(), format!("n{n}_tx{}", tx.len())),
                    &tx,
                    |b, tx| {
                        let mut resolver = kind.build();
                        b.iter(|| resolver.resolve(&net, std::hint::black_box(tx)))
                    },
                );
            }
        }
    }
    group.finish();
}

criterion_group!(benches, bench_resolvers);
criterion_main!(benches);
