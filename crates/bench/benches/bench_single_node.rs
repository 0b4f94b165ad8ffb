//! E2 (Figure 2 / §7.2): the single-node message path.
//!
//! Measures (a) point-to-point send→receive throughput through the
//! coordinator/mailbox/scheduler stack, and (b) the pure pattern-resolution
//! cost as the number of visible actors and the pattern complexity grow.

use std::time::Duration;

use actorspace_atoms::path;
use actorspace_core::{policy::ManagerPolicy, ActorId, Route, ShardedRegistry};
use actorspace_pattern::{pattern, Pattern};
use actorspace_runtime::{from_fn, ActorSystem, Config, Value};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_point_to_point(c: &mut Criterion) {
    let mut g = c.benchmark_group("E2_point_to_point");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    let batch: u64 = 10_000;
    g.throughput(Throughput::Elements(batch));
    let sys = ActorSystem::new(Config {
        workers: 2,
        ..Config::default()
    });
    let sink = sys.spawn(from_fn(|_, _| {}));
    g.bench_function("send_10k_msgs", |b| {
        b.iter(|| {
            for _ in 0..batch {
                sink.send(Value::int(1));
            }
            assert!(sys.await_idle(Duration::from_secs(30)));
        });
    });
    g.finish();
    sys.shutdown();
}

fn bench_pattern_send_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("E2_pattern_send");
    g.sample_size(10).measurement_time(Duration::from_secs(5));
    let batch: u64 = 10_000;
    g.throughput(Throughput::Elements(batch));
    let sys = ActorSystem::new(Config {
        workers: 2,
        ..Config::default()
    });
    let space = sys.create_space(None).unwrap();
    let a = sys.spawn(from_fn(|_, _| {}));
    sys.make_visible(a.id(), &path("srv/one"), space, None)
        .unwrap();
    let pat = pattern("srv/*");
    g.bench_function("pattern_send_10k", |b| {
        b.iter(|| {
            for _ in 0..batch {
                sys.send_pattern(&pat, space, Value::int(1), None).unwrap();
            }
            assert!(sys.await_idle(Duration::from_secs(30)));
        });
    });
    g.finish();
    sys.shutdown();
}

/// Coordinator-only resolution (`ShardedRegistry`): no scheduling noise.
fn resolve_registry(n_actors: usize) -> (ShardedRegistry<u64>, actorspace_core::SpaceId) {
    let reg: ShardedRegistry<u64> = ShardedRegistry::new(ManagerPolicy::default());
    let space = reg.create_space(None);
    let mut sink = |_: ActorId, _: u64, _: Option<&Route>| {};
    for i in 0..n_actors {
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

fn bench_resolution_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("E2_resolve_vs_visible_actors");
    g.sample_size(20);
    for n in [10usize, 100, 1_000, 10_000] {
        let (reg, space) = resolve_registry(n);
        let exact = Pattern::parse(&format!("srv/class-1/inst-{}", 1.min(n - 1))).unwrap();
        let wild = pattern("srv/class-1/*");
        let scan = pattern("**");
        g.bench_with_input(BenchmarkId::new("exact", n), &n, |b, _| {
            b.iter(|| reg.resolve(&exact, space).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("wildcard", n), &n, |b, _| {
            b.iter(|| reg.resolve(&wild, space).unwrap());
        });
        g.bench_with_input(BenchmarkId::new("full_scan", n), &n, |b, _| {
            b.iter(|| reg.resolve(&scan, space).unwrap());
        });
    }
    g.finish();
}

fn bench_pattern_complexity(c: &mut Criterion) {
    let mut g = c.benchmark_group("E2_resolve_vs_pattern_complexity");
    g.sample_size(20);
    let (reg, space) = resolve_registry(1_000);
    for (name, pat) in [
        ("literal", pattern("srv/class-1/inst-1")),
        ("one_star", pattern("srv/*/inst-1")),
        ("double_star", pattern("**/inst-1")),
        ("alternation", pattern("srv/{class-1, class-2, class-3}/*")),
        ("neg_class", pattern("srv/[^class-1]/*")),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| reg.resolve(&pat, space).unwrap());
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_point_to_point,
    bench_pattern_send_path,
    bench_resolution_scaling,
    bench_pattern_complexity
);
criterion_main!(benches);
