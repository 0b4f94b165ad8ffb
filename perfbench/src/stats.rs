//! Benchmark arithmetic: percentiles, medians and `/proc` parsing.

/// Percentile ladder searched for the reported tail: the highest entry
/// that still has at least [`TAIL_MIN_BEYOND`] samples above it.
const LADDER: [(f64, &str); 5] = [
    (0.5, "p50"),
    (0.9, "p90"),
    (0.99, "p99"),
    (0.999, "p99.9"),
    (0.9999, "p99.99"),
];

/// A tail percentile is only reported when this many samples lie beyond it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `sorted` (ascending): the smallest sample
/// with at least a share `q` of all samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly above the nearest-rank position of `q`.
fn beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    n - rank
}

/// Median of an unsorted list.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// A latency distribution as the benchmark reports it.
#[derive(Debug, Clone, PartialEq)]
pub struct Dist {
    pub count: usize,
    pub p50: f64,
    pub p99: f64,
    /// Every ladder percentile with [`TAIL_MIN_BEYOND`] samples beyond
    /// it, with its value, lowest first.
    pub ladder: Vec<(&'static str, f64)>,
}

impl Dist {
    /// Summarises `samples` (any order). Empty input gives zeros.
    pub fn of(samples: &[f64]) -> Dist {
        Dist::of_mut(&mut samples.to_vec())
    }

    /// [`Dist::of`] without a copy: sorts `v` in place.
    pub fn of_mut(v: &mut [f64]) -> Dist {
        if v.is_empty() {
            return Dist {
                count: 0,
                p50: 0.0,
                p99: 0.0,
                ladder: Vec::new(),
            };
        }
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let ladder = LADDER
            .iter()
            .filter(|(q, _)| beyond(n, *q) >= TAIL_MIN_BEYOND)
            .map(|&(q, label)| (label, percentile(v, q)))
            .collect();
        Dist {
            count: n,
            p50: percentile(v, 0.5),
            p99: percentile(v, 0.99),
            ladder,
        }
    }
}

/// CPU time (user + system) of the process, in clock ticks, from the text
/// of `/proc/self/stat`. The command name (field 2) may hold spaces and
/// parentheses, so fields are counted after its closing parenthesis.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// The numeric value of `key:` in the text of `/proc/self/status`
/// (`VmHWM` in kB, `Threads` as a count).
pub fn parse_status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let (k, v) = line.split_once(':')?;
        if k != key {
            return None;
        }
        v.split_whitespace().next()?.parse().ok()
    })
}

/// Ticks per second of the `/proc/<pid>/stat` time fields. Linux fixes
/// this `USER_HZ` at 100 for the `/proc` interface on every architecture
/// the repository targets.
pub const USER_HZ: f64 = 100.0;

/// Process CPU seconds so far.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_stat_cpu_ticks(&stat).expect("parse /proc/self/stat") as f64 / USER_HZ
}

fn status_field(key: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_status_field(&status, key).unwrap_or_else(|| panic!("{key} in /proc/self/status"))
}

/// Peak resident set size so far, MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM") as f64 / 1024.0
}

/// OS threads in this process now.
pub fn os_threads() -> u64 {
    status_field("Threads")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        // 100 samples: p90 leaves 10 beyond, p99 only 1.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let d = Dist::of(&v);
        assert_eq!(d.count, 100);
        assert_eq!(d.ladder.last().copied(), Some(("p90", 90.0)));
        assert_eq!(d.ladder, vec![("p50", 50.0), ("p90", 90.0)]);
        // 1,000 samples: p99 leaves exactly 10 beyond.
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(Dist::of(&v).ladder.last().copied(), Some(("p99", 990.0)));
        // 999 samples: p99 leaves 9, so the tail falls back to p90.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(
            Dist::of(&v).ladder.last().copied().map(|t| t.0),
            Some("p90")
        );
        // 15 samples: even p50 leaves only 7.
        let v: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(Dist::of(&v).ladder.last().copied(), None);
        assert_eq!(Dist::of(&[]).count, 0);
    }

    #[test]
    fn parses_proc_stat_with_awkward_command_name() {
        let stat = "4242 (we ird) (name) S 1 4242 4242 0 -1 4194560 100 0 0 0 \
                    1234 56 0 0 20 0 35 0 987 1000000 300";
        assert_eq!(parse_stat_cpu_ticks(stat), Some(1290));
        assert_eq!(parse_stat_cpu_ticks("garbage"), None);
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn parses_proc_status_fields() {
        let status = "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t   5120 kB\n\
                      Threads:\t34\nSigQ:\t0/6000\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(5120));
        assert_eq!(parse_status_field(status, "Threads"), Some(34));
        assert_eq!(parse_status_field(status, "VmRSS"), None);
        // A key must match whole, not as a prefix.
        assert_eq!(parse_status_field(status, "Vm"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb() > 0.0);
        assert!(os_threads() >= 1);
    }
}
