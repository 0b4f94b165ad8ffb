//! E6 (§5.6): the unmatched-message policies.
//!
//! Measures the registry-level cost of each policy for a send whose
//! pattern matches nothing, and the suspend→wake cycle (send unmatched,
//! then make a matching actor visible). Suspension is "the cheapest option
//! that avoids repeated synchronization" — the bench quantifies what it
//! costs relative to discarding.

use actorspace_atoms::path;
use actorspace_core::{
    policy::{ManagerPolicy, UnmatchedPolicy},
    ActorId, Route, ShardedRegistry,
};
use actorspace_pattern::pattern;
use criterion::{criterion_group, criterion_main, Criterion};

fn registry(unmatched: UnmatchedPolicy) -> ShardedRegistry<u64> {
    let p = ManagerPolicy {
        unmatched_send: unmatched,
        unmatched_broadcast: unmatched,
        selection_seed: Some(1),
        ..Default::default()
    };
    ShardedRegistry::new(p)
}

fn bench_unmatched_send(c: &mut Criterion) {
    let mut g = c.benchmark_group("E6_unmatched_send");
    for (name, policy) in [
        ("discard", UnmatchedPolicy::Discard),
        ("suspend", UnmatchedPolicy::Suspend),
        ("error", UnmatchedPolicy::Error),
    ] {
        g.bench_function(name, |b| {
            b.iter_with_setup(
                || {
                    let r = registry(policy);
                    let s = r.create_space(None);
                    (r, s)
                },
                |(r, s)| {
                    let mut sink = |_: ActorId, _: u64, _: Option<&Route>| {};
                    let pat = pattern("ghost");
                    for _ in 0..100 {
                        let _ = r.send(&pat, s, 1, &mut sink);
                    }
                },
            );
        });
    }
    g.finish();
}

fn bench_suspend_wake_cycle(c: &mut Criterion) {
    let mut g = c.benchmark_group("E6_suspend_wake");
    g.bench_function("send_then_arrival_releases", |b| {
        b.iter_with_setup(
            || {
                let r = registry(UnmatchedPolicy::Suspend);
                let s = r.create_space(None);
                let a = r.create_actor(s, None).unwrap();
                (r, s, a)
            },
            |(r, s, a)| {
                let mut delivered = 0u32;
                let mut sink = |_: ActorId, _: u64, _: Option<&Route>| {
                    delivered += 1;
                };
                let pat = pattern("late");
                for _ in 0..50 {
                    r.send(&pat, s, 1, &mut sink).unwrap();
                }
                r.make_visible(a.into(), vec![path("late")], s, None, &mut sink)
                    .unwrap();
                assert_eq!(delivered, 50);
            },
        );
    });
    g.bench_function("persistent_broadcast_with_10_arrivals", |b| {
        b.iter_with_setup(
            || {
                let r = registry(UnmatchedPolicy::Persistent);
                let s = r.create_space(None);
                let actors: Vec<ActorId> =
                    (0..10).map(|_| r.create_actor(s, None).unwrap()).collect();
                (r, s, actors)
            },
            |(r, s, actors)| {
                let mut delivered = 0u32;
                let mut sink = |_: ActorId, _: u64, _: Option<&Route>| {
                    delivered += 1;
                };
                r.broadcast(&pattern("node"), s, 1, &mut sink).unwrap();
                for a in actors {
                    r.make_visible(a.into(), vec![path("node")], s, None, &mut sink)
                        .unwrap();
                }
                assert_eq!(delivered, 10);
            },
        );
    });
    g.finish();
}

/// The cost visibility changes pay for the wake machinery when there is
/// nothing pending — the common case.
fn bench_wake_overhead_when_nothing_pending(c: &mut Criterion) {
    let mut g = c.benchmark_group("E6_wake_overhead");
    g.bench_function("make_visible_no_pending", |b| {
        b.iter_with_setup(
            || {
                let r = registry(UnmatchedPolicy::Suspend);
                let s = r.create_space(None);
                let actors: Vec<ActorId> =
                    (0..100).map(|_| r.create_actor(s, None).unwrap()).collect();
                (r, s, actors)
            },
            |(r, s, actors)| {
                let mut sink = |_: ActorId, _: u64, _: Option<&Route>| {};
                for (i, a) in actors.into_iter().enumerate() {
                    r.make_visible(a.into(), vec![path(&format!("w/{i}"))], s, None, &mut sink)
                        .unwrap();
                }
            },
        );
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_unmatched_send,
    bench_suspend_wake_cycle,
    bench_wake_overhead_when_nothing_pending
);
criterion_main!(benches);
