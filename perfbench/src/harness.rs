//! What every workload shares: the measured window's bookkeeping, the
//! untraced and traced runs, per-layer counters read from the program's
//! exported metrics, and the quiescent probes of pure layers.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::{Duration, Instant};

use actorspace_atoms::Path;
use actorspace_core::{ActorId, SpaceId};
use actorspace_obs::{names, Obs};
use actorspace_pattern::Pattern;
use actorspace_runtime::{codec, from_fn, ActorSystem, Behavior, Message, Value};

use crate::span::{self, Span, Spans};
use crate::stats::{self, Dist};

/// How long a run waits for operations still outstanding when its window
/// closes before it counts them as timed out.
pub const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// Each quiescent layer probe repeats its inputs for about this long.
const PROBE_BUDGET: Duration = Duration::from_millis(100);

/// Spans written to the span file per run; the self-time table covers
/// every span kept in memory.
const SPAN_FILE_CAP: usize = 200_000;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (operations, for per-operation ratios).
    pub n: usize,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        n,
    }
}

/// End-to-end figures are medians over sub-windows of this length, so a
/// burst of noise on the shared host moves one sample, not the result.
const SUB_WINDOW: Duration = Duration::from_secs(1);

/// Samples kept per sub-window and series; past this the newest
/// overwrite the oldest. Allocated and touched up front so the
/// benchmark's own memory does not grow with the program's throughput.
const SUB_WINDOW_CAP: usize = 1 << 18;

/// One closed sub-window.
#[derive(Debug, Clone)]
pub struct Sub {
    /// From the previous sub-window's last completion to this one's (the
    /// nominal length if it has none), so that an open loop's rate reads
    /// as measured rather than as offered.
    pub secs: f64,
    pub completed: u64,
    pub latency_us: Dist,
    pub late_ms: Dist,
}

/// Fixed-capacity sample buffer reused across sub-windows.
struct Buf {
    v: Vec<f64>,
    seen: usize,
}

impl Buf {
    fn new() -> Buf {
        Buf {
            v: vec![1.0; SUB_WINDOW_CAP],
            seen: 0,
        }
    }

    fn push(&mut self, x: f64) {
        self.v[self.seen % SUB_WINDOW_CAP] = x;
        self.seen += 1;
    }

    fn take(&mut self) -> Dist {
        let d = Dist::of_mut(&mut self.v[..self.seen.min(SUB_WINDOW_CAP)]);
        self.seen = 0;
        d
    }
}

/// What one measured window produced.
pub struct Window {
    /// Operations issued, and those that reached the wrong fate.
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// Workload-specific metrics (probe lag, failover stall, …).
    pub extra: Vec<Metric>,
    /// Closed sub-windows, in order.
    pub subs: Vec<Sub>,
    /// Completions handled inside the window, and after it closed.
    pub completed: u64,
    pub drained: u64,
    /// Process CPU seconds over the window, once closed.
    pub cpu_s: f64,
    end: Instant,
    cut: Instant,
    open: bool,
    sub_completed: u64,
    /// The last completion, and the last completion of the previous
    /// sub-window (the window's start at first).
    last_done: Instant,
    mark: Instant,
    cpu_start: f64,
    latency: Buf,
    late: Buf,
}

impl Window {
    /// Starts a window of `secs` now.
    pub fn new(secs: f64) -> Window {
        let (latency, late) = (Buf::new(), Buf::new());
        let start = Instant::now();
        Window {
            attempted: 0,
            failed: 0,
            violations: Vec::new(),
            extra: Vec::new(),
            subs: Vec::new(),
            completed: 0,
            drained: 0,
            cpu_s: 0.0,
            end: start + Duration::from_secs_f64(secs),
            cut: start + SUB_WINDOW,
            open: true,
            sub_completed: 0,
            last_done: start,
            mark: start,
            cpu_start: stats::cpu_seconds(),
            latency,
            late,
        }
    }

    /// When the window closes.
    pub fn end(&self) -> Instant {
        self.end
    }

    /// Counts a wrong fate; the first 20 are kept for the report.
    pub fn violation(&mut self, what: String) {
        self.failed += 1;
        if self.violations.len() < 20 {
            self.violations.push(what);
        }
    }

    /// Closes every sub-window that ended before `now`.
    fn roll(&mut self, now: Instant) {
        while self.open && now >= self.cut {
            let secs = if self.sub_completed > 0 {
                let secs = (self.last_done - self.mark).as_secs_f64();
                self.mark = self.last_done;
                secs
            } else {
                self.mark = self.cut;
                SUB_WINDOW.as_secs_f64()
            };
            self.subs.push(Sub {
                secs,
                completed: self.sub_completed,
                latency_us: self.latency.take(),
                late_ms: self.late.take(),
            });
            self.sub_completed = 0;
            self.cut += SUB_WINDOW;
            self.open = self.cut <= self.end;
        }
    }

    /// An operation completed with this latency (issue or due time to
    /// completion). After [`Window::close`] it only counts as drained.
    pub fn done(&mut self, latency_us: f64) {
        let now = Instant::now();
        self.roll(now);
        if self.open {
            self.completed += 1;
            self.sub_completed += 1;
            self.last_done = now;
            self.latency.push(latency_us);
        } else {
            self.drained += 1;
        }
    }

    /// How late the generator acted: a completion's arrival to its
    /// handling (closed loop), or a request's due time to its send (open
    /// loop).
    pub fn late(&mut self, ms: f64) {
        self.roll(Instant::now());
        if self.open {
            self.late.push(ms);
        }
    }

    /// Ends the measured part: closes the last whole sub-window and drops
    /// any remainder shorter than a sub-window.
    pub fn close(&mut self) {
        self.roll(Instant::now());
        self.open = false;
        self.cpu_s = stats::cpu_seconds() - self.cpu_start;
    }

    /// Operations completed in the window and its drain.
    pub fn ops(&self) -> usize {
        (self.completed + self.drained).max(1) as usize
    }

    /// Median over sub-windows of `f`, skipping sub-windows without
    /// completions where `f` needs samples.
    fn median_of(&self, f: impl Fn(&Sub) -> Option<f64>) -> f64 {
        let v: Vec<f64> = self.subs.iter().filter_map(f).collect();
        if v.is_empty() {
            0.0
        } else {
            stats::median(&v)
        }
    }

    fn throughput(&self) -> f64 {
        self.median_of(|s| Some(s.completed as f64 / s.secs))
    }

    /// Median over sub-windows of their `label` latency percentile, over
    /// those with 10 samples beyond it; `None` unless most have.
    fn latency(&self, label: &str) -> Option<f64> {
        let v: Vec<f64> = self
            .subs
            .iter()
            .filter_map(|s| s.latency_us.ladder.iter().find(|t| t.0 == label))
            .map(|t| t.1)
            .collect();
        (2 * v.len() > self.subs.len()).then(|| stats::median(&v))
    }
}

/// A booted workload.
pub trait Bench {
    /// The observer the program reports into.
    fn obs(&self) -> Arc<Obs>;
    /// Runs one measured window of `secs`, then waits for the operations
    /// still outstanding.
    fn window(&mut self, secs: f64) -> Window;
    /// Times the pure layers (matching, resolution, codec) on this
    /// workload's inputs while the system is quiescent.
    fn probes(&self) -> Vec<Metric>;
    /// Checks the end state; returns the violations found.
    fn check_end(&mut self) -> Vec<String>;
}

/// Everything a run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Free-form report lines (self-time table, span file).
    pub notes: Vec<String>,
}

/// Process-wide counters sampled before and after a window.
struct Counters {
    sends: u64,
    broadcasts: u64,
    matched: u64,
    index_hits: u64,
    index_misses: u64,
    deliveries: u64,
    dead_letters: u64,
    forwarded: u64,
    retransmits: u64,
    trace_events: u64,
    /// Per lock class: wait sum (ns) and hold count.
    locks: HashMap<&'static str, (u64, u64)>,
}

impl Counters {
    fn read(obs: &Obs) -> Counters {
        let snap = obs.metrics.snapshot(obs.now_nanos());
        let total = |name| snap.counter_total(name);
        Counters {
            sends: total(names::CORE_SENDS),
            broadcasts: total(names::CORE_BROADCASTS),
            matched: total(names::CORE_MATCHED),
            index_hits: total(names::CORE_INDEX_HITS),
            index_misses: total(names::CORE_INDEX_MISSES),
            deliveries: total(names::RT_DELIVERIES),
            dead_letters: total(names::RT_DEAD_LETTERS),
            forwarded: total(names::NET_FORWARDED),
            retransmits: total(names::NET_RETRANSMITS),
            trace_events: obs.tracer.len() as u64 + obs.tracer.dropped(),
            locks: actorspace_lockcheck::lock_timing()
                .into_iter()
                .map(|t| (t.class, (t.wait.sum, t.hold.count)))
                .collect(),
        }
    }
}

/// Lock classes on the send path, reported one by one.
const LOCK_CLASSES: [&str; 9] = [
    "meta",
    "shard",
    "actors",
    "mailbox",
    "behavior",
    "scheduler",
    "bus",
    "reliable",
    "cluster",
];

/// Runs the workload's untraced window (trace off), or an untraced and a
/// traced window of half the time each (trace on), then its end checks.
/// Both kinds of run take about `secs`.
pub fn drive(
    bench: &mut dyn Bench,
    spans: &Spans,
    secs: f64,
    trace: bool,
    span_file: &std::path::Path,
) -> Outcome {
    let mut metrics = Vec::new();
    let mut notes = Vec::new();
    let secs = if trace { secs / 2.0 } else { secs };
    let before = Counters::read(&bench.obs());
    let plain = bench.window(secs);
    let after = Counters::read(&bench.obs());
    let threads = stats::os_threads();
    let plain_tput = plain.throughput();
    let plain_ops = plain.ops();
    let mut windows = vec![plain];
    if !trace {
        let w = &windows[0];
        let n = w.completed as usize;
        notes.push(format!(
            "end-to-end figures: medians over {} sub-windows of {:?}",
            w.subs.len(),
            SUB_WINDOW
        ));
        metrics.push(metric("throughput_ops_s", plain_tput, "1/s", n));
        for label in ["p50", "p90", "p99"] {
            if let Some(v) = w.latency(label) {
                metrics.push(metric(format!("latency_{label}_us"), v, "us", n));
            }
        }
        // The highest percentile the sub-windows support beyond p99.
        if let Some((label, v)) = ["p99.99", "p99.9"]
            .into_iter()
            .find_map(|l| w.latency(l).map(|v| (l, v)))
        {
            metrics.push(metric(format!("latency_{label}_us"), v, "us", n));
        }
        // Over the whole window: a sub-window holds too few clock ticks.
        metrics.push(metric(
            "cpu_us_per_op",
            w.cpu_s * 1e6 / n.max(1) as f64,
            "us",
            n,
        ));
        metrics.push(metric("peak_rss_mb", stats::peak_rss_mb(), "MiB", 1));
        metrics.extend(w.extra.iter().cloned());
    } else {
        spans.set_on(true);
        let traced = bench.window(secs);
        spans.set_on(false);
        let recorded = spans.take();
        let traced_tput = traced.throughput();
        // Exported counters need no spans: read them over the untraced window.
        metrics.extend(counter_metrics(&before, &after, plain_ops));
        metrics.extend(span_metrics(&recorded));
        metrics.extend(traced.extra.iter().cloned());
        metrics.push(metric(
            "bench.generator_late_ms",
            traced.median_of(|s| (s.late_ms.count > 0).then_some(s.late_ms.p99)),
            "ms",
            traced.completed as usize,
        ));
        metrics.push(metric("net.os_threads", threads as f64, "count", 1));
        metrics.push(metric(
            "bench.trace_overhead_pct",
            (plain_tput - traced_tput) / plain_tput * 100.0,
            "%",
            traced.ops(),
        ));
        notes.push(format!(
            "self-time per layer over {} spans, {} more dropped at the cap \
             (ns; self = duration minus child coverage):",
            recorded.len(),
            spans.dropped()
        ));
        notes.push(format!(
            "  {:<22} {:>9} {:>14} {:>14} {:>10}",
            "span", "count", "total_ns", "self_ns", "self/span"
        ));
        for row in span::self_time_table(&recorded) {
            notes.push(format!(
                "  {:<22} {:>9} {:>14} {:>14} {:>10.0}",
                row.name,
                row.count,
                row.total_ns,
                row.self_ns,
                row.self_ns as f64 / row.count as f64
            ));
        }
        match write_spans(&recorded, span_file) {
            Ok(n) => notes.push(format!(
                "spans: {n} of {} written to {}",
                recorded.len(),
                span_file.display()
            )),
            Err(e) => notes.push(format!("spans: not written ({e})")),
        }
        windows.push(traced);
        metrics.extend(bench.probes());
    }
    let mut violations: Vec<String> = Vec::new();
    let (mut attempted, mut failed) = (0, 0);
    for w in &windows {
        attempted += w.attempted;
        failed += w.failed;
        violations.extend(w.violations.iter().cloned());
    }
    let end = bench.check_end();
    failed += end.len() as u64;
    violations.extend(end);
    Outcome {
        attempted,
        failed,
        violations,
        metrics,
        notes,
    }
}

fn write_spans(spans: &[Span], path: &std::path::Path) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    span::write_json_lines(spans, SPAN_FILE_CAP, std::fs::File::create(path)?)
}

fn counter_metrics(a: &Counters, b: &Counters, ops: usize) -> Vec<Metric> {
    let per_op = |x: u64, y: u64| y.saturating_sub(x) as f64 / ops as f64;
    let hits = b.index_hits - a.index_hits;
    let lookups = hits + (b.index_misses - a.index_misses);
    let resolutions = (b.sends - a.sends) + (b.broadcasts - a.broadcasts);
    let lock = |t: &Counters, class: &str| t.locks.get(class).copied().unwrap_or((0, 0));
    let mut out = vec![
        metric(
            "core.matched_per_send",
            (b.matched - a.matched) as f64 / resolutions.max(1) as f64,
            "count",
            resolutions as usize,
        ),
        metric(
            "core.index_hit_ratio",
            hits as f64 / lookups.max(1) as f64,
            "ratio",
            lookups as usize,
        ),
        metric(
            "runtime.deliveries_per_op",
            per_op(a.deliveries, b.deliveries),
            "count",
            ops,
        ),
        metric(
            "runtime.dead_letters",
            (b.dead_letters - a.dead_letters) as f64,
            "count",
            ops,
        ),
        metric(
            "net.forwarded_per_op",
            per_op(a.forwarded, b.forwarded),
            "count",
            ops,
        ),
        metric(
            "net.retransmits_per_op",
            per_op(a.retransmits, b.retransmits),
            "count",
            ops,
        ),
        metric(
            "obs.trace_events_per_op",
            per_op(a.trace_events, b.trace_events),
            "count",
            ops,
        ),
    ];
    let (mut wait, mut holds) = (0, 0);
    for class in b.locks.keys() {
        let (w0, h0) = lock(a, class);
        let (w1, h1) = lock(b, class);
        wait += w1 - w0;
        holds += h1 - h0;
    }
    out.push(metric(
        "lock.wait_ns_per_op",
        wait as f64 / ops as f64,
        "ns",
        ops,
    ));
    out.push(metric(
        "lock.acquisitions_per_op",
        holds as f64 / ops as f64,
        "count",
        ops,
    ));
    for class in LOCK_CLASSES {
        out.push(metric(
            format!("lock.wait_ns_per_op.{class}"),
            per_op(lock(a, class).0, lock(b, class).0),
            "ns",
            ops,
        ));
    }
    out
}

/// Per-layer timings taken from the spans the traced window recorded.
fn span_metrics(spans: &[Span]) -> Vec<Metric> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut durations: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut queue = Vec::new();
    for s in spans {
        durations
            .entry(s.name)
            .or_default()
            .push(s.end.saturating_sub(s.start) as f64);
        // Queueing: from the causing call's return to the behaviour's start.
        if s.name == BEHAVIOUR {
            if let Some(p) = by_id.get(&s.parent) {
                queue.push(s.start.saturating_sub(p.end) as f64);
            }
        }
    }
    let mut out = Vec::new();
    let mut dist = |name: &str, span: &str, p99: bool| {
        let d = Dist::of(durations.get(span).map(Vec::as_slice).unwrap_or(&[]));
        if d.count > 0 {
            out.push(metric(format!("{name}.p50"), d.p50, "ns", d.count));
            if p99 {
                out.push(metric(format!("{name}.p99"), d.p99, "ns", d.count));
            }
        }
    };
    dist("core.send_call_ns", SEND, true);
    dist("core.broadcast_call_ns", BROADCAST, false);
    dist("core.visibility_call_ns", MAKE_VISIBLE, false);
    dist("runtime.reply_call_ns", REPLY, false);
    let q = Dist::of(&queue);
    if q.count > 0 {
        out.push(metric("runtime.queue_ns.p50", q.p50, "ns", q.count));
        out.push(metric("runtime.queue_ns.p99", q.p99, "ns", q.count));
    }
    out
}

/// Span names: one per public call the benchmark times, plus the
/// benchmark behaviours' bodies.
pub const SEND: &str = "core.send_pattern";
pub const BROADCAST: &str = "core.broadcast";
pub const MAKE_VISIBLE: &str = "core.make_visible";
pub const MAKE_INVISIBLE: &str = "core.make_invisible";
pub const BEHAVIOUR: &str = "bench.behaviour";
pub const REPLY: &str = "runtime.reply";
pub const KILL: &str = "net.kill_node";
pub const RESTART: &str = "net.restart_node";

/// Mean nanoseconds per call of `f` over repeated rounds.
fn time_per_call(calls_per_round: usize, mut f: impl FnMut()) -> (f64, usize) {
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed() < PROBE_BUDGET {
        f();
        rounds += 1;
    }
    let calls = rounds * calls_per_round.max(1);
    (start.elapsed().as_nanos() as f64 / calls as f64, calls)
}

/// Times `Pattern::matches` over the workload's (pattern, attribute)
/// pairs, `ActorSystem::resolve` over its patterns, and the codec over
/// its messages.
pub fn layer_probes(
    sys: &ActorSystem,
    space: SpaceId,
    pairs: &[(Pattern, Path)],
    patterns: &[Pattern],
    msgs: &[Message],
) -> Vec<Metric> {
    let (match_ns, n_match) = time_per_call(pairs.len(), || {
        for (p, a) in pairs {
            black_box(p.matches(black_box(a)));
        }
    });
    let (resolve_ns, n_resolve) = time_per_call(patterns.len(), || {
        for p in patterns {
            black_box(
                sys.resolve(black_box(p), space)
                    .expect("resolve in a live space"),
            );
        }
    });
    let mut buf = Vec::new();
    let (encode_ns, n_enc) = time_per_call(msgs.len(), || {
        for m in msgs {
            buf.clear();
            codec::encode_message(black_box(m), &mut buf);
            black_box(&buf);
        }
    });
    let encoded: Vec<Vec<u8>> = msgs.iter().map(codec::message_to_bytes).collect();
    let (decode_ns, n_dec) = time_per_call(encoded.len(), || {
        for b in &encoded {
            black_box(codec::decode_message(black_box(b)).expect("own encoding decodes"));
        }
    });
    let bytes = encoded.iter().map(Vec::len).sum::<usize>() as f64 / encoded.len().max(1) as f64;
    vec![
        metric("pattern.match_ns", match_ns, "ns", n_match),
        metric("core.resolve_ns", resolve_ns, "ns", n_resolve),
        metric("codec.encode_ns", encode_ns, "ns", n_enc),
        metric("codec.decode_ns", decode_ns, "ns", n_dec),
        metric("codec.bytes_per_msg", bytes, "bytes", encoded.len()),
    ]
}

/// A request body: the operation id and a seeded payload the reply must
/// carry back unchanged.
pub fn request(op: u64, payload: i64) -> Value {
    Value::list(vec![Value::int(op as i64), Value::int(payload)])
}

/// The (operation id, payload) a request body carries.
pub fn parse_request(body: &Value) -> Option<(u64, i64)> {
    match body.as_list()? {
        [op, payload] => Some((op.as_int()? as u64, payload.as_int()?)),
        _ => None,
    }
}

/// Microseconds from `a` to `b` (0 if `b` is earlier).
pub fn us_between(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_nanos() as f64 / 1e3
}

/// Milliseconds from `a` to `b` (0 if `b` is earlier).
pub fn ms_between(a: Instant, b: Instant) -> f64 {
    us_between(a, b) / 1e3
}

/// What the benchmark behaviours tell the generator, stamped when the
/// behaviour ran.
#[derive(Debug)]
pub enum Ev {
    /// A reply reached the caller's reply address.
    Reply {
        op: u64,
        payload: i64,
        from: Option<ActorId>,
        at: Instant,
    },
    /// A member of a `wide_space` class processed one copy of `op`.
    Done { op: u64, member: usize, at: Instant },
    /// Visibility probe `n` ran its behaviour.
    Probe { n: u64, at: Instant },
}

/// The replica behaviour: replies to the sender with the request body.
pub fn echo(spans: Arc<Spans>) -> impl Behavior {
    from_fn(move |ctx, msg| {
        if !spans.on() {
            ctx.reply(msg.body);
            return;
        }
        let start = spans.now();
        let op = parse_request(&msg.body).map_or(0, |r| r.0);
        let id = spans.fresh_id();
        let reply = spans.fresh_id();
        spans.time(REPLY, reply, id, op, || ctx.reply(msg.body));
        spans.record(Span {
            id,
            parent: span::root_id(op),
            op,
            name: BEHAVIOUR,
            start,
            end: spans.now(),
        });
    })
}

/// The caller's reply address: hands each reply to the generator.
pub fn reply_sink(tx: Sender<Ev>) -> impl Behavior {
    from_fn(move |_ctx, msg| {
        let at = Instant::now();
        let (op, payload) = parse_request(&msg.body).unwrap_or((u64::MAX, 0));
        // The generator outlives every run; a send error means it is gone.
        let _ = tx.send(Ev::Reply {
            op,
            payload,
            from: msg.from,
            at,
        });
    })
}

/// A seeded 64-bit generator (SplitMix64): the same seed gives the same
/// operation mix, picks, names and fault schedule.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A non-negative payload value.
    pub fn payload(&mut self) -> i64 {
        (self.next_u64() >> 2) as i64
    }
}
