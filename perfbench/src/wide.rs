//! `wide_space`: 2,000 actors visible in one space as
//! `svc/class-{k}/i{n}`, 50 classes of 40. Eight operations stay
//! outstanding, drawn from a seeded mix: 80% `send(svc/class-K/*)`, 10%
//! `broadcast(svc/class-K/*)` (fan-out 40) and 10% visibility writes
//! (`make_invisible` then `make_visible` of one member, so class sizes are
//! unchanged once the write completes). Pattern resolution, the
//! coordinator's locks and index maintenance do the work.

use std::collections::HashMap;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::time::Instant;

use actorspace_atoms::Path;
use actorspace_core::{ActorId, Disposition, SpaceId};
use actorspace_obs::Obs;
use actorspace_pattern::Pattern;
use actorspace_runtime::{from_fn, ActorHandle, ActorSystem, Config, Message};

use crate::harness::{
    layer_probes, ms_between, parse_request, request, us_between, Bench, Ev, Metric, Rng, Window,
    BEHAVIOUR, BROADCAST, DRAIN_TIMEOUT, MAKE_INVISIBLE, MAKE_VISIBLE, SEND,
};
use crate::span::{root_id, Span, Spans};

const CLASSES: usize = 50;
const CLASS_SIZE: usize = 40;
const OUTSTANDING: usize = 8;

/// An outstanding send or broadcast.
struct Op {
    class: usize,
    issued: Instant,
    expected: u32,
    /// Class positions that have processed a copy.
    seen: u64,
}

pub struct Wide {
    sys: ActorSystem,
    _handles: Vec<ActorHandle>,
    spans: Arc<Spans>,
    space: SpaceId,
    /// Member ids, class-major: member `m` is in class `m / CLASS_SIZE`.
    members: Vec<ActorId>,
    attrs: Vec<Path>,
    patterns: Vec<Pattern>,
    rx: Receiver<Ev>,
    rng: Rng,
    next_op: u64,
    /// Seeds the quiescent probes' inputs.
    seed: u64,
}

/// `count` distinct seeded numbers below `bound`.
fn distinct(rng: &mut Rng, count: usize, bound: u64) -> Vec<u64> {
    let mut out: Vec<u64> = Vec::with_capacity(count);
    while out.len() < count {
        let k = rng.below(bound);
        if !out.contains(&k) {
            out.push(k);
        }
    }
    out
}

pub fn setup(seed: u64, spans: Arc<Spans>) -> Wide {
    let mut rng = Rng::new(seed);
    let sys = ActorSystem::new(Config::default());
    let space = sys.create_space(None).expect("create space");
    let (tx, rx) = channel();
    let mut handles = Vec::with_capacity(CLASSES * CLASS_SIZE);
    let mut attrs = Vec::with_capacity(CLASSES * CLASS_SIZE);
    let mut patterns = Vec::with_capacity(CLASSES);
    // Seeded class and instance numbers name the attributes.
    for k in distinct(&mut rng, CLASSES, 100_000) {
        patterns.push(Pattern::parse(&format!("svc/class-{k}/*")).expect("valid pattern"));
        for n in distinct(&mut rng, CLASS_SIZE, 100_000) {
            attrs.push(Path::parse(&format!("svc/class-{k}/i{n}")).expect("valid attribute"));
        }
    }
    for (member, attr) in attrs.iter().enumerate() {
        let tx = tx.clone();
        let spans = spans.clone();
        let h = sys.spawn(from_fn(move |_ctx, msg| {
            let start = spans.now();
            let at = Instant::now();
            let op = parse_request(&msg.body).map_or(u64::MAX, |r| r.0);
            let _ = tx.send(Ev::Done { op, member, at });
            spans.record(Span {
                id: spans.fresh_id(),
                parent: root_id(op),
                op,
                name: BEHAVIOUR,
                start,
                end: spans.now(),
            });
        }));
        sys.make_visible(h.id(), attr, space, None)
            .expect("make member visible");
        handles.push(h);
    }
    Wide {
        members: handles.iter().map(ActorHandle::id).collect(),
        sys,
        _handles: handles,
        spans,
        space,
        attrs,
        patterns,
        rx,
        rng,
        next_op: 0,
        seed,
    }
}

impl Wide {
    /// Issues one operation from the mix; a write completes in the call.
    fn issue(&mut self, w: &mut Window, out: &mut HashMap<u64, Op>) {
        let op = self.next_op;
        self.next_op += 1;
        w.attempted += 1;
        let class = self.rng.below(CLASSES as u64) as usize;
        let pick = self.rng.below(10);
        let body = request(op, self.rng.payload());
        let pat = &self.patterns[class];
        let t = Instant::now();
        let (sent, expected) = match pick {
            0..=7 => (
                self.spans.time(SEND, root_id(op), 0, op, || {
                    self.sys.send_pattern(pat, self.space, body, None)
                }),
                1,
            ),
            8 => (
                self.spans.time(BROADCAST, root_id(op), 0, op, || {
                    self.sys.broadcast(pat, self.space, body, None)
                }),
                CLASS_SIZE,
            ),
            _ => {
                let m = class * CLASS_SIZE + self.rng.below(CLASS_SIZE as u64) as usize;
                let id = self.members[m];
                let hidden = self.spans.time(MAKE_INVISIBLE, root_id(op), 0, op, || {
                    self.sys.make_invisible(id, self.space, None)
                });
                let shown = self
                    .spans
                    .time(MAKE_VISIBLE, self.spans.fresh_id(), 0, op, || {
                        self.sys.make_visible(id, &self.attrs[m], self.space, None)
                    });
                match (hidden, shown) {
                    (Ok(()), Ok(())) => w.done(us_between(t, Instant::now())),
                    other => w.violation(format!("op {op}: visibility write returned {other:?}")),
                }
                return;
            }
        };
        match sent {
            Ok(Disposition::Delivered(n)) if n == expected => {
                out.insert(
                    op,
                    Op {
                        class,
                        issued: t,
                        expected: expected as u32,
                        seen: 0,
                    },
                );
            }
            other => w.violation(format!(
                "op {op}: expected Delivered({expected}), got {other:?}"
            )),
        }
    }

    fn handle(&mut self, ev: Ev, w: &mut Window, out: &mut HashMap<u64, Op>) {
        let Ev::Done { op, member, at } = ev else {
            return w.violation(format!("unexpected event {ev:?}"));
        };
        w.late(ms_between(at, Instant::now()));
        let Some(o) = out.get_mut(&op) else {
            return w.violation(format!("copy of op {op}, which is not outstanding"));
        };
        let bit = 1u64 << (member % CLASS_SIZE);
        if member / CLASS_SIZE != o.class || o.seen & bit != 0 {
            let class = o.class;
            out.remove(&op);
            return w.violation(format!(
                "op {op} for class {class} reached member {member} wrongly or twice"
            ));
        }
        o.seen |= bit;
        if o.seen.count_ones() == o.expected {
            let issued = o.issued;
            out.remove(&op);
            w.done(us_between(issued, at));
        }
    }
}

impl Bench for Wide {
    fn obs(&self) -> Arc<Obs> {
        self.sys.obs().clone()
    }

    fn window(&mut self, secs: f64) -> Window {
        let mut out = HashMap::with_capacity(2 * OUTSTANDING);
        let mut w = Window::new(secs);
        let end = w.end();
        loop {
            let now = Instant::now();
            if now >= end {
                break;
            }
            if out.len() < OUTSTANDING {
                self.issue(&mut w, &mut out);
                continue;
            }
            match self.rx.recv_timeout(end - now) {
                Ok(ev) => self.handle(ev, &mut w, &mut out),
                Err(RecvTimeoutError::Timeout) => {}
                Err(RecvTimeoutError::Disconnected) => panic!("members dropped"),
            }
        }
        w.close();
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while !out.is_empty() {
            match self
                .rx
                .recv_timeout(deadline.saturating_duration_since(Instant::now()))
            {
                Ok(ev) => self.handle(ev, &mut w, &mut out),
                Err(_) => break,
            }
        }
        for op in out.keys() {
            w.violation(format!("op {op}: copies missing after {DRAIN_TIMEOUT:?}"));
        }
        w
    }

    fn probes(&self) -> Vec<Metric> {
        let mut rng = Rng::new(self.seed);
        let mut pairs: Vec<(Pattern, Path)> = Vec::new();
        for p in &self.patterns {
            for _ in 0..CLASS_SIZE {
                let a = &self.attrs[rng.below(self.attrs.len() as u64) as usize];
                pairs.push((p.clone(), a.clone()));
            }
        }
        let msgs: Vec<Message> = (0..16)
            .map(|op| Message::new(request(op, rng.payload())))
            .collect();
        layer_probes(&self.sys, self.space, &pairs, &self.patterns, &msgs)
    }

    fn check_end(&mut self) -> Vec<String> {
        let mut v = Vec::new();
        if !self.sys.await_idle(DRAIN_TIMEOUT) {
            v.push("system did not quiesce after the run".to_owned());
        }
        if let Ok(ev) = self.rx.try_recv() {
            v.push(format!("event after every operation completed: {ev:?}"));
        }
        let dead = self.sys.stats().dead_letters;
        if dead > 0 {
            v.push(format!("{dead} dead letters"));
        }
        for (k, p) in self.patterns.iter().enumerate() {
            let mut got = self.sys.resolve(p, self.space).unwrap_or_default();
            got.sort();
            let mut want = self.members[k * CLASS_SIZE..(k + 1) * CLASS_SIZE].to_vec();
            want.sort();
            if got != want {
                v.push(format!(
                    "class {k} resolves to {} members, expected its {CLASS_SIZE}",
                    got.len()
                ));
            }
        }
        v
    }
}
