//! Snapshot consistency under concurrency: counters and histograms are
//! updated from many threads while a reader snapshots continuously. Every
//! snapshot must be internally sane (no torn reads — a counter is a single
//! atomic load) and totals must be monotone from one snapshot to the next.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use actorspace_obs::{MetricsRegistry, Snapshot};

const THREADS: usize = 8;
const PER_THREAD: u64 = 20_000;

#[test]
fn parallel_increments_yield_monotone_untorn_snapshots() {
    let reg = Arc::new(MetricsRegistry::new());
    let done = Arc::new(AtomicBool::new(false));
    // The writers start only after the reader's first snapshot.
    let start = Arc::new(Barrier::new(THREADS + 1));

    let writers: Vec<_> = (0..THREADS)
        .map(|t| {
            let reg = reg.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                start.wait();
                let c = reg.counter("test.ops", t as u16 % 4);
                let h = reg.histogram("test.latency_ns", t as u16 % 4);
                for i in 0..PER_THREAD {
                    c.inc();
                    h.record(i % 1024);
                }
            })
        })
        .collect();

    let reader = {
        let reg = reg.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            let mut last_ops = 0u64;
            let mut last_hist = 0u64;
            let mut snaps = 0u64;
            loop {
                let s: Snapshot = reg.snapshot(0);
                let ops = s.counter_total("test.ops");
                let hist = s.histogram_total("test.latency_ns").count;
                assert!(ops >= last_ops, "counter total went backwards");
                assert!(hist >= last_hist, "histogram count went backwards");
                assert!(ops <= THREADS as u64 * PER_THREAD, "counter over-counted");
                last_ops = ops;
                last_hist = hist;
                snaps += 1;
                if snaps == 1 {
                    start.wait();
                }
                if done.load(Ordering::Acquire) {
                    break;
                }
            }
            snaps
        })
    };

    for w in writers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Release);
    let snaps = reader.join().unwrap();
    assert!(snaps > 0, "reader never snapshotted");

    let s = reg.snapshot(0);
    assert_eq!(s.counter_total("test.ops"), THREADS as u64 * PER_THREAD);
    assert_eq!(
        s.histogram_total("test.latency_ns").count,
        THREADS as u64 * PER_THREAD
    );
    // Per-node slices add up to the whole.
    let by_node: u64 = (0..4u16)
        .map(|n| s.counter("test.ops", n).unwrap_or(0))
        .sum();
    assert_eq!(by_node, THREADS as u64 * PER_THREAD);
}

#[test]
fn histogram_quantiles_are_ordered_after_concurrent_recording() {
    let reg = Arc::new(MetricsRegistry::new());
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let reg = reg.clone();
            std::thread::spawn(move || {
                let h = reg.histogram("test.h", 0);
                for i in 0..10_000u64 {
                    h.record(i);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let h = reg.histogram("test.h", 0);
    let snap = h.snapshot();
    assert_eq!(snap.count, 40_000);
    assert!(snap.p50 <= snap.p90 && snap.p90 <= snap.p99 && snap.p99 <= snap.max);
}
