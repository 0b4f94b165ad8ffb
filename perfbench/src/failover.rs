//! `failover`: three nodes with `FailureConfig::fast()`. An open loop
//! sends 2,000 requests/s from node 0 to 4 echo replicas on node 1 and 4
//! on node 2. Once in every second of the window, at a seeded offset,
//! node 2 is killed, restarted after a seeded down time, and 4 fresh
//! replicas are made visible on it. This is the only workload that drives
//! the failure detector, journal drain and bounce re-resolution, and
//! bus-log replay on restart; it is open loop so that requests due during
//! a fault are counted.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use actorspace_atoms::Path;
use actorspace_core::{ActorId, Disposition, SpaceId};
use actorspace_net::{Cluster, ClusterConfig, FailureConfig, NodeHandle};
use actorspace_obs::{names, Counter, Obs};
use actorspace_pattern::Pattern;
use actorspace_runtime::{ActorSystem, Message};

use crate::harness::{
    echo, layer_probes, metric, ms_between, reply_sink, request, us_between, Bench, Ev, Metric,
    Rng, Window, DRAIN_TIMEOUT, KILL, MAKE_VISIBLE, RESTART, SEND,
};
use crate::span::{root_id, Spans};
use crate::stats::median;

/// Offered load: one request every 500 µs.
const PERIOD: Duration = Duration::from_micros(500);
const REPLICAS_PER_NODE: usize = 4;
/// One kill per slot, at a seeded offset and with a seeded down time.
const SLOT: Duration = Duration::from_secs(1);
const KILL_OFFSET_MS: (u64, u64) = (150, 400);
const DOWN_MS: (u64, u64) = (100, 150);
/// A kill is only scheduled if its node is back this long before the end.
const SETTLE: Duration = Duration::from_millis(300);
const DOOMED: usize = 2;
const BOOT_TIMEOUT: Duration = Duration::from_secs(10);

fn replica_attr(i: usize) -> Path {
    Path::parse(&format!("svc/echo/r{i}")).expect("valid attribute")
}

pub struct Failover {
    cluster: Cluster,
    sys0: Arc<ActorSystem>,
    spans: Arc<Spans>,
    space: SpaceId,
    pattern: Pattern,
    sink: ActorId,
    rx: Receiver<Ev>,
    rng: Rng,
    next_op: u64,
    /// Seeds the quiescent probes' inputs.
    seed: u64,
    /// Replicas of the doomed node's current incarnation.
    fresh: Vec<ActorId>,
    /// `runtime.suspicions` of the two survivors.
    suspicions: [Arc<Counter>; 2],
    reroute: Vec<Arc<actorspace_obs::Histogram>>,
    failovers: Vec<Arc<Counter>>,
}

pub fn setup(seed: u64, spans: Arc<Spans>) -> Failover {
    let cluster = Cluster::new(ClusterConfig {
        nodes: 3,
        failure: FailureConfig::fast(),
        ..ClusterConfig::default()
    });
    let node0 = cluster.node(0);
    let space = node0.create_space(None);
    let (tx, rx) = channel();
    let sink = node0.spawn(reply_sink(tx));
    let mut fresh = Vec::new();
    for i in 0..2 * REPLICAS_PER_NODE {
        let node = cluster.node(1 + i / REPLICAS_PER_NODE);
        let id = node.spawn(echo(spans.clone()));
        node.make_visible(id, &replica_attr(i), space, None)
            .expect("make replica visible");
        if node.id().0 as usize == DOOMED {
            fresh.push(id);
        }
    }
    assert!(
        cluster.await_coherence(BOOT_TIMEOUT),
        "cluster did not reach coherence at boot"
    );
    let metrics = &cluster.obs().metrics;
    let suspicions = [
        metrics.counter(names::RT_SUSPICIONS, 0),
        metrics.counter(names::RT_SUSPICIONS, 1),
    ];
    let reroute = (0..3)
        .map(|n| metrics.histogram(names::NET_FAILOVER_REROUTE_NS, n))
        .collect();
    let failovers = (0..3)
        .map(|n| metrics.counter(names::RT_FAILOVERS, n))
        .collect();
    Failover {
        sys0: node0.system(),
        cluster,
        spans,
        space,
        pattern: Pattern::parse("svc/echo/*").expect("valid pattern"),
        sink,
        rx,
        rng: Rng::new(seed),
        next_op: 0,
        seed,
        fresh,
        suspicions,
        reroute,
        failovers,
    }
}

/// One kill as it happened.
struct Kill {
    at: Instant,
    /// Longest latency of a request due while the node was down, µs.
    worst_us: f64,
    detected: Option<Instant>,
    restarted: Option<Instant>,
    restart_call_ms: f64,
    recovered: Option<Instant>,
}

enum Fault {
    /// Waiting for the next scheduled kill.
    Up,
    /// Node down; restarts at the instant given.
    Down(Instant),
    /// Restarted; waiting for a reply from a fresh replica.
    Recovering,
}

impl Failover {
    fn doomed(&self) -> &NodeHandle {
        self.cluster.node(DOOMED)
    }

    fn suspicions(&self) -> u64 {
        self.suspicions.iter().map(|c| c.get()).sum()
    }

    fn issue(&mut self, due: Instant, w: &mut Window, out: &mut HashMap<u64, (Instant, i64)>) {
        let op = self.next_op;
        self.next_op += 1;
        let payload = self.rng.payload();
        w.attempted += 1;
        w.late(ms_between(due, Instant::now()));
        let sent = self.spans.time(SEND, root_id(op), 0, op, || {
            self.sys0.send_pattern(
                &self.pattern,
                self.space,
                request(op, payload),
                Some(self.sink),
            )
        });
        match sent {
            Ok(Disposition::Delivered(1)) => {
                out.insert(op, (due, payload));
            }
            other => w.violation(format!("request {op}: send returned {other:?}")),
        }
    }

    fn kill(&mut self) -> Kill {
        let at = Instant::now();
        let killed = self.spans.time(KILL, self.spans.fresh_id(), 0, 0, || {
            self.cluster.kill_node(DOOMED)
        });
        assert!(killed, "node {DOOMED} was already down");
        Kill {
            at,
            worst_us: 0.0,
            detected: None,
            restarted: None,
            restart_call_ms: 0.0,
            recovered: None,
        }
    }

    /// Restarts the doomed node and makes 4 fresh replicas visible on it.
    fn restart(&mut self, kill: &mut Kill, w: &mut Window) {
        let t = Instant::now();
        let up = self.spans.time(RESTART, self.spans.fresh_id(), 0, 0, || {
            self.cluster.restart_node(DOOMED)
        });
        assert!(up, "node {DOOMED} was already up");
        kill.restarted = Some(t);
        kill.restart_call_ms = ms_between(t, Instant::now());
        self.fresh.clear();
        for i in REPLICAS_PER_NODE..2 * REPLICAS_PER_NODE {
            let node = self.doomed().clone();
            let id = node.spawn(echo(self.spans.clone()));
            let shown = self
                .spans
                .time(MAKE_VISIBLE, self.spans.fresh_id(), 0, 0, || {
                    node.make_visible(id, &replica_attr(i), self.space, None)
                });
            if let Err(e) = shown {
                w.violation(format!("fresh replica {i}: make_visible failed: {e}"));
            }
            self.fresh.push(id);
        }
    }

    /// Accounts one reply; false if it was not outstanding.
    fn reply(
        &self,
        op: u64,
        payload: i64,
        at: Instant,
        w: &mut Window,
        out: &mut HashMap<u64, (Instant, i64)>,
        kills: &mut [Kill],
    ) -> bool {
        let Some((due, sent)) = out.remove(&op) else {
            w.violation(format!("reply for request {op}, which is not outstanding"));
            return false;
        };
        if payload != sent {
            w.violation(format!(
                "request {op}: reply carried {payload}, sent {sent}"
            ));
        }
        let lat = us_between(due, at);
        w.done(lat);
        // A request due while the node was down belongs to that kill.
        if let Some(k) = kills
            .iter_mut()
            .rev()
            .find(|k| due >= k.at && k.restarted.is_none_or(|r| due < r))
        {
            k.worst_us = k.worst_us.max(lat);
        }
        true
    }

    fn reroute_totals(&self) -> (u64, u64) {
        self.reroute
            .iter()
            .fold((0, 0), |(c, s), h| (c + h.count(), s + h.sum()))
    }
}

impl Bench for Failover {
    fn obs(&self) -> Arc<Obs> {
        self.cluster.obs().clone()
    }

    fn window(&mut self, secs: f64) -> Window {
        let mut w = Window::new(secs);
        let start = Instant::now();
        let end = w.end();
        // The seeded fault schedule: (kill time, down time) per slot.
        let mut schedule = Vec::new();
        let mut slot = start;
        loop {
            let at = slot + Duration::from_millis(span(&mut self.rng, KILL_OFFSET_MS));
            let down = Duration::from_millis(span(&mut self.rng, DOWN_MS));
            if at + down + SETTLE > end {
                break;
            }
            schedule.push((at, down));
            slot += SLOT;
        }
        schedule.reverse();
        let mut kills: Vec<Kill> = Vec::new();
        let mut fault = Fault::Up;
        let mut susp_base = 0;
        let (reroute_n0, reroute_sum0) = self.reroute_totals();
        let failovers0: u64 = self.failovers.iter().map(|c| c.get()).sum();
        let mut out = HashMap::with_capacity(256);
        let mut k = 0u32;
        let mut next_due = start;
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            while next_due <= now {
                self.issue(next_due, &mut w, &mut out);
                k += 1;
                next_due = start + PERIOD * k;
            }
            let mut wake = next_due.min(end);
            match fault {
                Fault::Up => {
                    if let Some(&(at, down)) = schedule.last() {
                        if now >= at {
                            schedule.pop();
                            susp_base = self.suspicions();
                            kills.push(self.kill());
                            fault = Fault::Down(Instant::now() + down);
                        } else {
                            wake = wake.min(at);
                        }
                    }
                }
                Fault::Down(restart_at) => {
                    let kill = kills.last_mut().expect("a kill is in progress");
                    if kill.detected.is_none() && self.suspicions() > susp_base {
                        kill.detected = Some(now);
                    }
                    if now >= restart_at {
                        let mut kill = kills.pop().expect("a kill is in progress");
                        self.restart(&mut kill, &mut w);
                        kills.push(kill);
                        fault = Fault::Recovering;
                    } else {
                        wake = wake.min(restart_at);
                    }
                }
                Fault::Recovering => {}
            }
            match self
                .rx
                .recv_timeout(wake.saturating_duration_since(Instant::now()))
            {
                Ok(Ev::Reply {
                    op,
                    payload,
                    from,
                    at,
                }) => {
                    w.late(ms_between(at, Instant::now()));
                    if !self.reply(op, payload, at, &mut w, &mut out, &mut kills) {
                        continue;
                    }
                    if matches!(fault, Fault::Recovering)
                        && from.is_some_and(|f| self.fresh.contains(&f))
                    {
                        kills.last_mut().expect("a kill is in progress").recovered = Some(at);
                        fault = Fault::Up;
                    }
                }
                Ok(ev) => w.violation(format!("unexpected event {ev:?}")),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => panic!("reply sink dropped"),
            }
        }
        if let Fault::Down(_) = fault {
            let mut kill = kills.pop().expect("a kill is in progress");
            self.restart(&mut kill, &mut w);
            kills.push(kill);
        }
        w.close();
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while !out.is_empty() {
            match self
                .rx
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            {
                Ok(Ev::Reply {
                    op, payload, at, ..
                }) => {
                    self.reply(op, payload, at, &mut w, &mut out, &mut kills);
                }
                Ok(ev) => w.violation(format!("unexpected event {ev:?}")),
                Err(_) => break,
            }
        }
        for op in out.keys() {
            w.violation(format!("request {op}: no reply within {DRAIN_TIMEOUT:?}"));
        }

        // Per kill: the longest latency of any request due while the node
        // was down, and the time to the first reply from a fresh replica.
        let mut stalls = Vec::new();
        let mut recoveries = Vec::new();
        let mut detects = Vec::new();
        let mut restarts = Vec::new();
        for kill in &kills {
            stalls.push(kill.worst_us / 1e3);
            if let (Some(r), Some(ok)) = (kill.restarted, kill.recovered) {
                recoveries.push(ms_between(r, ok));
            }
            if let Some(d) = kill.detected {
                detects.push(ms_between(kill.at, d));
            }
            restarts.push(kill.restart_call_ms);
        }
        let n = kills.len();
        let (reroute_n, reroute_sum) = self.reroute_totals();
        let failovers: u64 = self.failovers.iter().map(|c| c.get()).sum::<u64>() - failovers0;
        let med = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        let reroutes = reroute_n - reroute_n0;
        w.extra.extend([
            metric("failover_stall_ms", med(&stalls), "ms", n),
            metric("recovery_ms", med(&recoveries), "ms", recoveries.len()),
            metric("failure.detect_ms", med(&detects), "ms", detects.len()),
            metric(
                "failure.reroute_ns.mean",
                (reroute_sum - reroute_sum0) as f64 / reroutes.max(1) as f64,
                "ns",
                reroutes as usize,
            ),
            metric(
                "failure.failovers_per_kill",
                failovers as f64 / n.max(1) as f64,
                "count",
                n,
            ),
            metric("restart.call_ms", med(&restarts), "ms", n),
        ]);
        w
    }

    fn probes(&self) -> Vec<Metric> {
        let mut rng = Rng::new(self.seed);
        let pairs: Vec<(Pattern, Path)> = (0..2 * REPLICAS_PER_NODE)
            .map(|i| (self.pattern.clone(), replica_attr(i)))
            .collect();
        let msgs: Vec<Message> = (0..16)
            .map(|op| Message::from_sender(self.sink, request(op, rng.payload())))
            .collect();
        layer_probes(
            &self.sys0,
            self.space,
            &pairs,
            std::slice::from_ref(&self.pattern),
            &msgs,
        )
    }

    fn check_end(&mut self) -> Vec<String> {
        let mut v = Vec::new();
        if !self.cluster.await_quiescence(DRAIN_TIMEOUT) {
            v.push("cluster did not quiesce after the run".to_owned());
        }
        if let Ok(ev) = self.rx.try_recv() {
            v.push(format!("event after every request completed: {ev:?}"));
        }
        let dead: u64 = self
            .cluster
            .nodes()
            .iter()
            .map(|n| n.stats().dead_letters)
            .sum();
        if dead > 0 {
            v.push(format!("{dead} dead letters"));
        }
        let svc = Pattern::parse("svc/**").expect("valid pattern");
        let views: Vec<Vec<ActorId>> = self
            .cluster
            .nodes()
            .iter()
            .map(|n| {
                let mut ids = n.system().resolve(&svc, self.space).unwrap_or_default();
                ids.sort();
                ids
            })
            .collect();
        if views[0].len() != 2 * REPLICAS_PER_NODE {
            v.push(format!(
                "svc/** resolves to {} replicas, expected {}",
                views[0].len(),
                2 * REPLICAS_PER_NODE
            ));
        }
        if views.iter().any(|view| view != &views[0]) {
            v.push("nodes resolve svc/** differently".to_owned());
        }
        v
    }
}

/// A seeded whole number in `[lo, hi)`.
fn span(rng: &mut Rng, (lo, hi): (u64, u64)) -> u64 {
    lo + rng.below(hi - lo)
}
