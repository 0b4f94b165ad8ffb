//! E12 (ablation): the exact-prefix attribute index.
//!
//! Literal destination patterns are answered from a per-space inverted
//! index instead of the NFA walk. This bench compares indexed vs unindexed
//! resolution across library sizes — the design-choice ablation DESIGN.md
//! calls out for the linear resolve cost E2/E11 expose. The coordinator,
//! `ShardedRegistry`, always indexes literal patterns, so the unindexed
//! column resolves a one-word alternation: the same language, but not
//! literal, so it takes the NFA walk.

use actorspace_atoms::path;
use actorspace_core::{policy::ManagerPolicy, ActorId, Route, ShardedRegistry, SpaceId};
use actorspace_pattern::{pattern, Pattern};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

fn build(n: usize) -> (ShardedRegistry<u64>, SpaceId) {
    let reg: ShardedRegistry<u64> = ShardedRegistry::new(ManagerPolicy::default());
    let space = reg.create_space(None);
    let mut sink = |_: ActorId, _: u64, _: Option<&Route>| {};
    for i in 0..n {
        let a = reg.create_actor(space, None).unwrap();
        reg.make_visible(
            a.into(),
            vec![path(&format!("srv/class-{}/inst-{}", i % 97, i))],
            space,
            None,
            &mut sink,
        )
        .unwrap();
    }
    (reg, space)
}

fn bench_index_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("E12_literal_index");
    g.sample_size(30);
    for n in [1_000usize, 10_000] {
        let exact = Pattern::parse("srv/class-1/inst-1").unwrap();
        let walked = pattern("{srv/class-1/inst-1, srv/class-1/inst-1}");
        let missing = Pattern::parse("srv/class-1/inst-absent").unwrap();
        let wildcard = pattern("srv/class-1/*");
        let (reg, s) = build(n);
        assert!(exact.as_literal().is_some() && walked.as_literal().is_none());
        assert_eq!(
            reg.resolve(&exact, s).unwrap(),
            reg.resolve(&walked, s).unwrap()
        );
        g.bench_with_input(BenchmarkId::new("exact_indexed", n), &n, |b, _| {
            b.iter(|| {
                assert_eq!(reg.resolve(&exact, s).unwrap().len(), 1);
            });
        });
        g.bench_with_input(BenchmarkId::new("exact_unindexed", n), &n, |b, _| {
            b.iter(|| {
                assert_eq!(reg.resolve(&walked, s).unwrap().len(), 1);
            });
        });
        g.bench_with_input(BenchmarkId::new("miss_indexed", n), &n, |b, _| {
            b.iter(|| {
                assert!(reg.resolve(&missing, s).unwrap().is_empty());
            });
        });
        g.bench_with_input(BenchmarkId::new("wildcard_either", n), &n, |b, _| {
            b.iter(|| reg.resolve(&wildcard, s).unwrap());
        });
    }
    g.finish();
}

criterion_group!(benches, bench_index_ablation);
criterion_main!(benches);
