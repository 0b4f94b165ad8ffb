//! The repository benchmark: four seeded workloads over the shipping send
//! path (`ActorSystem` over `ShardedRegistry` on one node, `Cluster` over
//! its sequencer bus on three), driven by one load-generator thread.
//!
//! ```text
//! perfbench --workload <rpc_small|wide_space|cluster_rpc|failover>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every metric is printed by name with its unit and sample count; the
//! last line is one JSON object with the end-to-end metrics (`--trace 0`)
//! or the per-layer metrics (`--trace 1`). The run exits non-zero if any
//! operation reached the wrong fate.

mod failover;
mod harness;
mod rpc;
mod span;
mod stats;
mod wide;

use std::process::{Command, ExitCode};
use std::sync::Arc;
use std::time::Instant;

use harness::{Bench, Metric, Outcome};
use span::Spans;

const WORKLOADS: [&str; 4] = ["rpc_small", "wide_space", "cluster_rpc", "failover"];

/// The end-to-end metrics of the final JSON line (`--trace 0`). Peak RSS
/// is printed but not among them: on `cluster_rpc` it lands on 20, 33 or
/// 56 MiB from run to run, as threads happen to pick malloc arenas.
const END_TO_END: [&str; 5] = [
    "setup_s",
    "throughput_ops_s",
    "latency_p50_us",
    "latency_p90_us",
    "cpu_us_per_op",
];

/// The per-layer metrics of the final JSON line (`--trace 1`): those every
/// workload measures. Workload-specific ones are printed by name only.
const PER_LAYER: [&str; 21] = [
    "pattern.match_ns",
    "core.send_call_ns.p50",
    "core.send_call_ns.p99",
    "core.resolve_ns",
    "core.matched_per_send",
    "core.index_hit_ratio",
    "lock.wait_ns_per_op",
    "lock.acquisitions_per_op",
    "runtime.queue_ns.p50",
    "runtime.queue_ns.p99",
    "runtime.deliveries_per_op",
    "runtime.dead_letters",
    "codec.encode_ns",
    "codec.decode_ns",
    "codec.bytes_per_msg",
    "net.forwarded_per_op",
    "net.retransmits_per_op",
    "net.os_threads",
    "obs.trace_events_per_op",
    "bench.generator_late_ms",
    "bench.trace_overhead_pct",
];

/// Set-ups per untraced run: one in this process and the rest in fresh
/// child processes, so leftovers of one set-up cannot slow the next.
const SETUPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_only: bool,
}

const USAGE: &str = "usage: perfbench --workload <rpc_small|wide_space|cluster_rpc|failover> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--setup-only" {
            args.setup_only = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload '{}'", args.workload));
    }
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err(format!(
            "--seconds must be in (0, 120], got {}",
            args.seconds
        ));
    }
    Ok(args)
}

/// Boots a workload: start, population and coherence, until the first
/// operation can be issued.
fn boot(workload: &str, seed: u64, spans: Arc<Spans>) -> Box<dyn Bench> {
    match workload {
        "rpc_small" => Box::new(rpc::setup_small(seed, spans)),
        "wide_space" => Box::new(wide::setup(seed, spans)),
        "cluster_rpc" => Box::new(rpc::setup_cluster(seed, spans)),
        "failover" => Box::new(failover::setup(seed, spans)),
        _ => unreachable!("workload validated by parse_args"),
    }
}

/// Times one set-up in a fresh child process.
fn child_setup_s(args: &Args) -> f64 {
    let exe = std::env::current_exe().expect("path of this executable");
    let out = Command::new(exe)
        .args(["--workload", &args.workload, "--seed"])
        .arg(args.seed.to_string())
        .arg("--setup-only")
        .output()
        .expect("run set-up child");
    assert!(out.status.success(), "set-up child failed: {out:?}");
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("set-up child prints its set-up seconds")
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spans = Arc::new(Spans::new(false));
    if args.setup_only {
        let t = Instant::now();
        let bench = boot(&args.workload, args.seed, spans);
        println!("{}", t.elapsed().as_secs_f64());
        drop(bench);
        return ExitCode::SUCCESS;
    }

    let mut setups: Vec<f64> = if args.trace {
        Vec::new()
    } else {
        (1..SETUPS).map(|_| child_setup_s(&args)).collect()
    };
    let t = Instant::now();
    let mut bench = boot(&args.workload, args.seed, spans.clone());
    setups.push(t.elapsed().as_secs_f64());
    let span_file = std::path::PathBuf::from(format!(".bench_out/spans-{}.jsonl", args.workload));
    let Outcome {
        attempted,
        failed,
        violations,
        mut metrics,
        notes,
    } = harness::drive(bench.as_mut(), &spans, args.seconds, args.trace, &span_file);
    drop(bench);
    metrics.push(harness::metric(
        "setup_s",
        stats::median(&setups),
        "s",
        setups.len(),
    ));
    metrics.push(harness::metric(
        "error_rate",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        attempted as usize,
    ));

    println!(
        "# perfbench workload={} seed={} seconds={} trace={} cores={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    for m in &metrics {
        println!("{:<34} {:>16.3} {:<6} n={}", m.name, m.value, m.unit, m.n);
    }
    for line in &notes {
        println!("{line}");
    }
    for v in &violations {
        println!("VIOLATION: {v}");
    }

    let wanted: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let fields: Vec<String> = wanted
        .iter()
        .map(|name| {
            let m: &Metric = metrics
                .iter()
                .find(|m| m.name == *name)
                .unwrap_or_else(|| panic!("workload {} did not measure {name}", args.workload));
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    let correct = failed == 0 && violations.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
