//! Benchmark-side spans: recorded around each call the benchmark makes
//! into a layer's public API and around the benchmark behaviours' bodies.
//! Spans stay in memory and are written out when the run ends.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Span ids at or above this value come from [`Spans::fresh_id`]; ids
/// below it are derived from an operation id by [`root_id`], so a
/// behaviour on another thread can name its parent without a lookup.
const FRESH_BASE: u64 = 1 << 62;

/// Spans kept in memory per run, about 56 MB; later spans are counted
/// and dropped.
const SPAN_CAP: usize = 1_000_000;

/// The id of operation `op`'s root span (the generator's call).
pub fn root_id(op: u64) -> u64 {
    op + 1
}

/// One timed interval, nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one; 0 for none.
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// The in-memory span store shared by the generator and behaviours.
/// When off, nothing is recorded and the clock is still readable.
pub struct Spans {
    /// Publishes no other data; `Relaxed` throughout. The switch is
    /// flipped between windows, while the generator issues nothing.
    on: AtomicBool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on: AtomicBool::new(on),
            epoch: Instant::now(),
            next: AtomicU64::new(FRESH_BASE),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    pub fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// A span id no other span has; the counter is only a source of
    /// unique numbers, so `Relaxed` suffices.
    pub fn fresh_id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    pub fn record(&self, span: Span) {
        if self.on() {
            let mut spans = self.spans.lock().expect("span store poisoned");
            if spans.len() < SPAN_CAP {
                spans.push(span);
            } else {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Spans not kept because the store was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Times `f` as span `name` with the given id and parent.
    pub fn time<R>(
        &self,
        name: &'static str,
        id: u64,
        parent: u64,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on() {
            return f();
        }
        let start = self.now();
        let r = f();
        let end = self.now();
        self.record(Span {
            id,
            parent,
            op,
            name,
            start,
            end,
        });
        r
    }

    /// Every span recorded so far, leaving the store empty.
    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span store poisoned"))
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its children cover (overlapping children counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let dur = s.end.saturating_sub(s.start);
            let Some(kids) = children.get_mut(&s.id) else {
                return dur;
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            dur - covered
        })
        .collect()
}

/// One row of the per-layer self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfRow {
    pub name: &'static str,
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per span name: count, total duration, and total self time, sorted by
/// self time, largest first.
pub fn self_time_table(spans: &[Span]) -> Vec<SelfRow> {
    let selfs = self_times(spans);
    let mut rows: HashMap<&'static str, SelfRow> = HashMap::new();
    for (s, own) in spans.iter().zip(selfs) {
        let row = rows.entry(s.name).or_insert(SelfRow {
            name: s.name,
            count: 0,
            total_ns: 0,
            self_ns: 0,
        });
        row.count += 1;
        row.total_ns += s.end.saturating_sub(s.start);
        row.self_ns += own;
    }
    let mut rows: Vec<SelfRow> = rows.into_values().collect();
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(b.name)));
    rows
}

/// Writes at most `cap` spans as JSON lines; returns how many were written.
pub fn write_json_lines(spans: &[Span], cap: usize, out: impl Write) -> std::io::Result<usize> {
    let mut out = std::io::BufWriter::new(out);
    let n = spans.len().min(cap);
    for s in &spans[..n] {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.op, s.start, s.end
        )?;
    }
    out.flush()?;
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children_coverage_once() {
        let spans = [
            span(1, 0, "parent", 0, 100),
            // Overlapping children cover [10, 50]; the third is clipped
            // to the parent's end and covers [90, 100].
            span(2, 1, "child", 10, 30),
            span(3, 1, "child", 20, 50),
            span(4, 1, "child", 90, 120),
            span(5, 2, "grandchild", 12, 14),
        ];
        assert_eq!(self_times(&spans), vec![50, 18, 30, 30, 2]);
    }

    #[test]
    fn child_outside_parent_covers_nothing() {
        // A behaviour that starts after the send call returned.
        let spans = [span(1, 0, "send", 0, 10), span(2, 1, "behaviour", 15, 40)];
        assert_eq!(self_times(&spans), vec![10, 25]);
    }

    #[test]
    fn table_groups_by_name() {
        let spans = [
            span(1, 0, "a", 0, 10),
            span(2, 1, "b", 2, 4),
            span(3, 0, "a", 20, 30),
        ];
        let t = self_time_table(&spans);
        assert_eq!(t[0].name, "a");
        assert_eq!((t[0].count, t[0].total_ns, t[0].self_ns), (2, 20, 18));
        assert_eq!((t[1].count, t[1].total_ns, t[1].self_ns), (1, 2, 2));
    }

    #[test]
    fn store_records_only_when_on() {
        let off = Spans::new(false);
        assert_eq!(off.time("x", 1, 0, 0, || 7), 7);
        assert!(off.take().is_empty());
        let on = Spans::new(true);
        on.time("x", root_id(3), 0, 3, || ());
        let got = on.take();
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].id, got[0].op), (4, 3));
        assert!(got[0].end >= got[0].start);
        assert!(on.fresh_id() >= FRESH_BASE);
        let mut buf = Vec::new();
        assert_eq!(write_json_lines(&got, 10, &mut buf).unwrap(), 1);
        assert!(String::from_utf8(buf)
            .unwrap()
            .starts_with("{\"name\":\"x\""));
    }
}
