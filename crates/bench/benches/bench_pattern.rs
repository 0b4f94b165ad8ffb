//! Pattern matching cost per call: `Pattern::matches` and one
//! `StateSet::advance` step, for an NFA small enough to keep its state set
//! inline (at most 64 states) and for one that needs the boxed bitset. A
//! wildcard resolve over 1,000 visible members, which runs the NFA walk
//! once per member attribute, is `E12_literal_index/wildcard_either/1000`
//! in `bench_attr_index`.

use std::hint::black_box;

use actorspace_atoms::{atom, path};
use actorspace_pattern::{pattern, Pattern};
use criterion::{criterion_group, criterion_main, Criterion};

/// An alternation of 40 three-atom paths: well over 64 NFA states.
fn large() -> Pattern {
    let arms: Vec<String> = (0..40).map(|i| format!("svc/k{i}/*")).collect();
    pattern(&format!("{{{}}}", arms.join(", ")))
}

fn bench_match(c: &mut Criterion) {
    let mut g = c.benchmark_group("pattern_match");
    let small = pattern("svc/echo/*");
    let large = large();
    assert!(small.nfa().len() <= 64 && large.nfa().len() > 64);
    let hit = path("svc/echo/r3");
    let large_hit = path("svc/k39/r3");
    assert!(small.matches(&hit) && large.matches(&large_hit));
    g.bench_function("matches_small", |b| {
        b.iter(|| small.matches(black_box(&hit)))
    });
    g.bench_function("matches_large", |b| {
        b.iter(|| large.matches(black_box(&large_hit)))
    });
    let svc = atom("svc");
    let small_start = small.start();
    let large_start = large.start();
    g.bench_function("advance_small", |b| {
        b.iter(|| small_start.advance(small.nfa(), black_box(svc)))
    });
    g.bench_function("advance_large", |b| {
        b.iter(|| large_start.advance(large.nfa(), black_box(svc)))
    });
    g.finish();
}

criterion_group!(benches, bench_match);
criterion_main!(benches);
