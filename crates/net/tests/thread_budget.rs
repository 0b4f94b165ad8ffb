//! Thread budget and thread leaks, read from `/proc/self/task`.
//!
//! A node runs on its event loop plus its workers; a cluster adds one
//! service thread. This binary holds a single test so that no other test
//! adds threads to the process while it counts.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use actorspace_atoms::path;
use actorspace_net::{Cluster, ClusterConfig};
use actorspace_pattern::pattern;
use actorspace_runtime::{from_fn, Value};

const TIMEOUT: Duration = Duration::from_secs(20);

/// Names of the process's threads, as the kernel keeps them (at most 15
/// bytes).
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .filter_map(|task| {
            let comm = task.ok()?.path().join("comm");
            Some(std::fs::read_to_string(comm).ok()?.trim_end().to_string())
        })
        .collect()
}

fn cluster(nodes: usize) -> Cluster {
    Cluster::new(ClusterConfig {
        nodes,
        workers_per_node: 2,
        obs_publish: Some(Duration::from_millis(10)),
        ..ClusterConfig::default()
    })
}

/// Cross-node traffic, so every kind of link and timer has run.
fn exercise(c: &Cluster) {
    let last = c.nodes().len() - 1;
    let (inbox, rx) = c.node(0).system().inbox();
    let space = c.node(0).create_space(None);
    let echo = c.node(last).spawn(from_fn(move |ctx, msg| {
        ctx.send_addr(inbox, msg.body);
    }));
    c.node(last)
        .make_visible(echo, &path("echo"), space, None)
        .unwrap();
    assert!(c.await_coherence(TIMEOUT));
    for i in 0..20 {
        c.node(0)
            .send_pattern(&pattern("echo"), space, Value::int(i))
            .unwrap();
    }
    for _ in 0..20 {
        rx.recv_timeout(TIMEOUT).expect("echo reply");
    }
    let _view = c.observe();
}

#[test]
fn clusters_stay_within_their_thread_budget_and_leak_none() {
    let start = thread_names().len();

    // Budget: nodes × (workers + 2) bounds the loop, the workers, and the
    // service thread together with the test's own threads.
    let (nodes, workers) = (8, 2);
    let c = cluster(nodes);
    exercise(&c);
    let names = thread_names();
    assert!(
        names.len() <= nodes * (workers + 2),
        "{} threads for {nodes} nodes × {workers} workers: {names:?}",
        names.len()
    );
    // No link, retransmit timer, bus protocol or publisher has a thread of
    // its own. The kernel cuts names to 15 bytes.
    for gone in [
        "actorspace-link",
        "actorspace-retx",
        "actorspace-sequencer",
        "actorspace-token",
        "obs-pub@",
    ] {
        let cut = &gone[..gone.len().min(15)];
        assert!(
            names.iter().all(|n| !n.starts_with(cut)),
            "a {gone} thread is running: {names:?}"
        );
    }
    drop(c);

    // No leak: every thread a cluster starts is joined when it drops.
    for _ in 0..10 {
        let c = cluster(3);
        exercise(&c);
        drop(c);
    }
    // A joined thread may linger in /proc for a moment after the join.
    let deadline = Instant::now() + Duration::from_secs(5);
    while thread_names().len() != start && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        thread_names().len(),
        start,
        "threads left behind: {:?}",
        thread_names()
    );
}
