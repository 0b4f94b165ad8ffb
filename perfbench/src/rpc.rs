//! `rpc_small` and `cluster_rpc`: 32 closed-loop callers send
//! `send(svc/echo/*@space)` with a reply address to 8 echo replicas and
//! wait for the reply. On one node the mailbox, scheduler and
//! per-message instrumentation do the work; on three nodes the codec,
//! links, reliable pipes and ordered bus do, and a visibility probe runs
//! every 10 ms.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use actorspace_atoms::Path;
use actorspace_core::{ActorId, Disposition, SpaceId};
use actorspace_net::{Cluster, ClusterConfig, NodeHandle};
use actorspace_obs::Obs;
use actorspace_pattern::Pattern;
use actorspace_runtime::{from_fn, ActorHandle, ActorSystem, Behavior, Config, Message, Value};

use crate::harness::{
    echo, layer_probes, metric, ms_between, reply_sink, request, us_between, Bench, Ev, Metric,
    Rng, Window, DRAIN_TIMEOUT, MAKE_INVISIBLE, MAKE_VISIBLE, SEND,
};
use crate::span::{root_id, Spans};
use crate::stats::Dist;

/// Closed-loop callers, each with one request outstanding.
const CALLERS: usize = 32;
/// Echo replicas visible as `svc/echo/r{i}`.
const REPLICAS: usize = 8;
/// Probe actors on node 0, reused round-robin so the space stays small.
const PROBE_POOL: usize = 4;
/// Period of the `cluster_rpc` visibility probe.
const PROBE_EVERY: Duration = Duration::from_millis(10);
const BOOT_TIMEOUT: Duration = Duration::from_secs(10);

fn replica_attr(i: usize) -> Path {
    Path::parse(&format!("svc/echo/r{i}")).expect("valid attribute")
}

fn pattern(text: &str) -> Pattern {
    Pattern::parse(text).expect("valid pattern")
}

/// The booted `rpc_small` or `cluster_rpc` fixture.
pub struct Rpc {
    /// The node the callers send from (node 0 on a cluster).
    sys: Arc<ActorSystem>,
    cluster: Option<Cluster>,
    /// Keeps the single-node actors rooted.
    _handles: Vec<ActorHandle>,
    spans: Arc<Spans>,
    space: SpaceId,
    pattern: Pattern,
    sink: ActorId,
    rx: Receiver<Ev>,
    rng: Rng,
    next_op: u64,
    /// Seeds the quiescent probes' inputs.
    seed: u64,
    probe: Option<Prober>,
}

/// `rpc_small`: one node with the default `Config`.
pub fn setup_small(seed: u64, spans: Arc<Spans>) -> Rpc {
    let sys = Arc::new(ActorSystem::new(Config::default()));
    let space = sys.create_space(None).expect("create space");
    let (tx, rx) = channel();
    let sink = sys.spawn(reply_sink(tx));
    let mut handles = Vec::new();
    for i in 0..REPLICAS {
        let h = sys.spawn(echo(spans.clone()));
        sys.make_visible(h.id(), &replica_attr(i), space, None)
            .expect("make replica visible");
        handles.push(h);
    }
    let sink_id = sink.id();
    handles.push(sink);
    Rpc {
        sys,
        cluster: None,
        _handles: handles,
        spans,
        space,
        pattern: pattern("svc/echo/*"),
        sink: sink_id,
        rx,
        rng: Rng::new(seed),
        next_op: 0,
        seed,
        probe: None,
    }
}

/// `cluster_rpc`: three nodes with the default `ClusterConfig`; replicas
/// on nodes 1 and 2, callers and probe actors on node 0.
pub fn setup_cluster(seed: u64, spans: Arc<Spans>) -> Rpc {
    let mut rng = Rng::new(seed);
    let cluster = Cluster::new(ClusterConfig {
        nodes: 3,
        ..ClusterConfig::default()
    });
    let node0 = cluster.node(0);
    let space = node0.create_space(None);
    let (tx, rx) = channel();
    let sink = node0.spawn(reply_sink(tx.clone()));
    for i in 0..REPLICAS {
        let node = cluster.node(1 + i % 2);
        let id = node.spawn(echo(spans.clone()));
        node.make_visible(id, &replica_attr(i), space, None)
            .expect("make replica visible");
    }
    let probes = (0..PROBE_POOL)
        .map(|_| node0.spawn(probe_behaviour(tx.clone())))
        .collect();
    assert!(
        cluster.await_coherence(BOOT_TIMEOUT),
        "cluster did not reach coherence at boot"
    );
    let sys0 = node0.system();
    let probe = Prober {
        node2: cluster.node(2).clone(),
        sys0: sys0.clone(),
        space,
        actors: probes,
        next_due: Instant::now(),
        // Probe attribute names start at a seeded number.
        n: rng.below(1_000_000),
        pending: None,
        lags_us: Vec::new(),
        submit_ns: Vec::new(),
    };
    Rpc {
        sys: sys0,
        cluster: Some(cluster),
        _handles: Vec::new(),
        spans,
        space,
        pattern: pattern("svc/echo/*"),
        sink,
        rx,
        rng,
        next_op: 0,
        seed,
        probe: Some(probe),
    }
}

fn probe_behaviour(tx: Sender<Ev>) -> impl Behavior {
    from_fn(move |_ctx, msg| {
        let at = Instant::now();
        let n = msg.body.as_int().unwrap_or(-1) as u64;
        let _ = tx.send(Ev::Probe { n, at });
    })
}

/// The `cluster_rpc` visibility probe: node 0 sends to a not-yet-visible
/// `probe/k{n}` (the send suspends, §5.6), node 2 makes a node-0 probe
/// actor visible under that name, and the lag runs from node 2's
/// `make_visible` call to the probe behaviour on node 0.
struct Prober {
    node2: NodeHandle,
    sys0: Arc<ActorSystem>,
    space: SpaceId,
    actors: Vec<ActorId>,
    next_due: Instant,
    n: u64,
    /// Probe number, `make_visible` call time, and actor in flight.
    pending: Option<(u64, Instant, ActorId)>,
    lags_us: Vec<f64>,
    submit_ns: Vec<f64>,
}

impl Prober {
    fn due(&self) -> Option<Instant> {
        self.pending.is_none().then_some(self.next_due)
    }

    fn tick(&mut self, now: Instant, w: &mut Window, spans: &Spans) {
        if self.pending.is_some() || now < self.next_due {
            return;
        }
        self.next_due += PROBE_EVERY;
        if self.next_due < now {
            self.next_due = now + PROBE_EVERY;
        }
        let n = self.n;
        self.n += 1;
        let name = format!("probe/k{n}");
        w.attempted += 1;
        match self
            .sys0
            .send_pattern(&pattern(&name), self.space, Value::int(n as i64), None)
        {
            Ok(Disposition::Suspended) => {}
            other => return w.violation(format!("probe {n}: send returned {other:?}")),
        }
        let actor = self.actors[n as usize % self.actors.len()];
        let attr = Path::parse(&name).expect("valid attribute");
        let t0 = Instant::now();
        let made = spans.time(MAKE_VISIBLE, spans.fresh_id(), 0, n, || {
            self.node2.make_visible(actor, &attr, self.space, None)
        });
        self.submit_ns.push(t0.elapsed().as_nanos() as f64);
        match made {
            Ok(()) => self.pending = Some((n, t0, actor)),
            Err(e) => w.violation(format!("probe {n}: make_visible failed: {e}")),
        }
    }

    fn on_probe(&mut self, n: u64, at: Instant, w: &mut Window, spans: &Spans) {
        match self.pending {
            Some((p, t0, actor)) if p == n => {
                self.lags_us.push(us_between(t0, at));
                self.pending = None;
                // Retire the name so the actor can be reused.
                let hidden = spans.time(MAKE_INVISIBLE, spans.fresh_id(), 0, n, || {
                    self.sys0.make_invisible(actor, self.space, None)
                });
                if let Err(e) = hidden {
                    w.violation(format!("probe {n}: make_invisible failed: {e}"));
                }
            }
            _ => w.violation(format!("probe {n} ran but was not pending")),
        }
    }
}

impl Rpc {
    fn issue(&mut self, w: &mut Window, out: &mut HashMap<u64, (Instant, i64)>) {
        let op = self.next_op;
        self.next_op += 1;
        let payload = self.rng.payload();
        w.attempted += 1;
        let t = Instant::now();
        let sent = self.spans.time(SEND, root_id(op), 0, op, || {
            self.sys.send_pattern(
                &self.pattern,
                self.space,
                request(op, payload),
                Some(self.sink),
            )
        });
        match sent {
            Ok(Disposition::Delivered(1)) => {
                out.insert(op, (t, payload));
            }
            other => w.violation(format!("op {op}: send returned {other:?}")),
        }
    }

    /// Handles one event; returns true when a caller is free again.
    fn handle(&mut self, ev: Ev, w: &mut Window, out: &mut HashMap<u64, (Instant, i64)>) -> bool {
        match ev {
            Ev::Reply {
                op, payload, at, ..
            } => {
                w.late(ms_between(at, Instant::now()));
                let Some((t, sent)) = out.remove(&op) else {
                    w.violation(format!("reply for op {op}, which is not outstanding"));
                    return false;
                };
                if payload != sent {
                    w.violation(format!("op {op}: reply carried {payload}, sent {sent}"));
                }
                w.done(us_between(t, at));
                true
            }
            Ev::Probe { n, at } => {
                let probe = self.probe.as_mut().expect("probe events need a prober");
                probe.on_probe(n, at, w, &self.spans);
                false
            }
            Ev::Done { op, .. } => {
                w.violation(format!("unexpected completion event for op {op}"));
                false
            }
        }
    }

    fn probe_pending(&self) -> bool {
        self.probe.as_ref().is_some_and(|p| p.pending.is_some())
    }
}

impl Bench for Rpc {
    fn obs(&self) -> Arc<Obs> {
        match &self.cluster {
            Some(c) => c.obs().clone(),
            None => self.sys.obs().clone(),
        }
    }

    fn window(&mut self, secs: f64) -> Window {
        let mut out = HashMap::with_capacity(2 * CALLERS);
        let submitted = self.cluster.as_ref().map(|c| c.bus().submitted());
        if let Some(p) = &mut self.probe {
            p.lags_us.clear();
            p.submit_ns.clear();
            p.next_due = Instant::now();
        }
        let mut w = Window::new(secs);
        let end = w.end();
        for _ in 0..CALLERS {
            self.issue(&mut w, &mut out);
        }
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            let mut until = end;
            if let Some(p) = &mut self.probe {
                p.tick(now, &mut w, &self.spans);
                until = p.due().map_or(until, |d| d.min(until));
            }
            match self.rx.recv_timeout(until.saturating_duration_since(now)) {
                Ok(ev) => {
                    if self.handle(ev, &mut w, &mut out) && Instant::now() < end {
                        self.issue(&mut w, &mut out);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => panic!("reply sink dropped"),
            }
        }
        w.close();
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while !out.is_empty() || self.probe_pending() {
            let left = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(left) {
                Ok(ev) => {
                    self.handle(ev, &mut w, &mut out);
                }
                Err(_) => break,
            }
        }
        for op in out.keys() {
            w.violation(format!("op {op}: no reply within {DRAIN_TIMEOUT:?}"));
        }
        if let Some(p) = &self.probe {
            if let Some((n, ..)) = p.pending {
                w.violation(format!("probe {n}: never ran"));
            }
            let lag = Dist::of(&p.lags_us);
            let submit = Dist::of(&p.submit_ns);
            w.extra.extend([
                metric("visibility_lag_p50_us", lag.p50, "us", lag.count),
                metric("visibility_lag_p99_us", lag.p99, "us", lag.count),
                metric("bus.submit_call_ns.p50", submit.p50, "ns", submit.count),
            ]);
        }
        if let (Some(c), Some(before)) = (&self.cluster, submitted) {
            let events = c.bus().submitted() - before;
            w.extra.push(metric(
                "bus.events_per_s",
                events as f64 / secs,
                "1/s",
                events as usize,
            ));
        }
        w
    }

    fn probes(&self) -> Vec<Metric> {
        let mut rng = Rng::new(self.seed);
        let pairs: Vec<(Pattern, Path)> = (0..REPLICAS)
            .map(|i| (self.pattern.clone(), replica_attr(i)))
            .collect();
        let msgs: Vec<Message> = (0..16)
            .map(|op| Message::from_sender(self.sink, request(op, rng.payload())))
            .collect();
        layer_probes(
            &self.sys,
            self.space,
            &pairs,
            std::slice::from_ref(&self.pattern),
            &msgs,
        )
    }

    fn check_end(&mut self) -> Vec<String> {
        let mut v = Vec::new();
        let quiet = match &self.cluster {
            Some(c) => c.await_quiescence(DRAIN_TIMEOUT),
            None => self.sys.await_idle(DRAIN_TIMEOUT),
        };
        if !quiet {
            v.push("system did not quiesce after the run".to_owned());
        }
        if let Ok(ev) = self.rx.try_recv() {
            v.push(format!("event after every operation completed: {ev:?}"));
        }
        let dead: u64 = match &self.cluster {
            Some(c) => c.nodes().iter().map(|n| n.stats().dead_letters).sum(),
            None => self.sys.stats().dead_letters as u64,
        };
        if dead > 0 {
            v.push(format!("{dead} dead letters"));
        }
        let systems: Vec<Arc<ActorSystem>> = match &self.cluster {
            Some(c) => c.nodes().iter().map(NodeHandle::system).collect(),
            None => vec![self.sys.clone()],
        };
        let mut views = Vec::new();
        for sys in &systems {
            let mut view = Vec::new();
            for p in ["svc/**", "probe/**"] {
                let mut ids = sys.resolve(&pattern(p), self.space).unwrap_or_default();
                ids.sort();
                view.push(ids);
            }
            views.push(view);
        }
        if views[0][0].len() != REPLICAS {
            v.push(format!(
                "svc/** resolves to {} members, expected {REPLICAS}",
                views[0][0].len()
            ));
        }
        // §7.3: every replica holds the same view of visibility.
        for (i, view) in views.iter().enumerate().skip(1) {
            if view != &views[0] {
                v.push(format!(
                    "node {i} resolves svc/** or probe/** differently from node 0"
                ));
            }
        }
        v
    }
}
