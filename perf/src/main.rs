//! cb-perf: the repository benchmark.
//!
//! ```text
//! cb-perf --workload <optimize_cold|reoptimize_warm|serve_exec>
//!         --seed <n> --seconds <n> --trace <0|1> [--state-dir <dir>]
//! ```
//!
//! One process, one client thread, the optimizer pinned at `threads = 1`.
//! A run sets the workload up several times (reporting the fastest
//! set-up), then serves a fixed, seeded request list whose length follows
//! from `--seconds`, checks every answer against the reference
//! interpreter, and prints one JSON object as the last line of standard
//! output. `--trace 1` replaces the measured pass by the traced run and
//! reports per-layer metrics instead. See `README.md`.

mod cold;
mod common;
mod rng;
mod scenarios;
mod serve;
mod tally;
mod trace;
mod warm;

use std::path::PathBuf;
use std::time::Instant;

use common::{median, slot_stats, Counters, Measured};
use rng::Draw;
pub use tally::LayerTally;
use trace::Tracer;

/// A workload's state after set-up, with what set-up cost.
pub struct Setup<T> {
    pub state: T,
    pub materialize_s: f64,
    pub oracle_s: f64,
    /// Work counters of the set-up itself (warm-up optimizations); every
    /// repetition of the set-up must repeat them.
    pub counters: Counters,
    /// Oracle failures found while setting up.
    pub failures: Vec<String>,
}

enum Workload {
    Cold(cold::Cold),
    Warm(warm::Warm),
    Serve(serve::Serve),
}

const WORKLOADS: [&str; 3] = ["optimize_cold", "reoptimize_warm", "serve_exec"];

/// Set-up repetitions before and after the measured pass; `setup_s` is
/// the fastest of every repetition, since host contention only ever
/// slows a set-up down. `optimize_cold`'s set-up takes about a fifth of
/// a second, short enough for one slow moment of the host to cover every
/// repetition at either end of the run, so it repeats after each pass of
/// the measured run instead and samples the host across the whole run,
/// as the requests do.
fn setup_reps(workload: &str) -> (usize, usize) {
    if workload == "optimize_cold" {
        (1, 0)
    } else {
        (2, 1)
    }
}

/// Fewest samples beyond the tail order statistic.
const TAIL_BEYOND: usize = 10;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    state_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, false);
    let mut state_dir = PathBuf::from(".bench_build/cb-perf");
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| "bad --seconds")?),
            "--trace" => trace = value == "1",
            "--state-dir" => state_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace,
        state_dir,
    })
}

fn setup(a: &Args) -> Setup<Workload> {
    fn wrap<T>(s: Setup<T>, f: fn(T) -> Workload) -> Setup<Workload> {
        Setup {
            state: f(s.state),
            materialize_s: s.materialize_s,
            oracle_s: s.oracle_s,
            counters: s.counters,
            failures: s.failures,
        }
    }
    match a.workload.as_str() {
        "optimize_cold" => wrap(cold::setup(a.seed, a.seconds), Workload::Cold),
        "reoptimize_warm" => wrap(warm::setup(a.seed, a.seconds), Workload::Warm),
        _ => wrap(serve::setup(a.seed, a.seconds), Workload::Serve),
    }
}

fn list_fingerprint(workload: &str, seed: u64, seconds: u64) -> u64 {
    match workload {
        "optimize_cold" => cold::list_fingerprint(seed, seconds),
        "reoptimize_warm" => warm::list_fingerprint(seed, seconds),
        _ => serve::list_fingerprint(seed, seconds),
    }
}

/// The host-speed probe: a pointer chase around one random cycle over
/// a preallocated 8 MB array. Allocation-free while timed; reported
/// beside the metrics to flag runs taken in a slow phase of the host.
struct HostProbe {
    next: Vec<u32>,
}

impl HostProbe {
    const LEN: usize = 2 << 20;
    const HOPS: usize = 2 << 20;

    fn new() -> HostProbe {
        // Sattolo's algorithm: a single cycle through every slot.
        let mut next: Vec<u32> = (0..Self::LEN as u32).collect();
        let mut rng = rng::fork(7, "host_probe");
        for i in (1..Self::LEN).rev() {
            let j = rng.range(0, i as u64) as usize;
            next.swap(i, j);
        }
        HostProbe { next }
    }

    /// Nanoseconds per hop, timed on the second of two laps so the
    /// array is as cache-resident as the host lets it be.
    fn run(&self) -> f64 {
        let mut ns = 0.0;
        for _ in 0..2 {
            let t = Instant::now();
            let mut i = 0u32;
            for _ in 0..Self::HOPS {
                i = self.next[i as usize];
            }
            std::hint::black_box(i);
            ns = t.elapsed().as_secs_f64() * 1e9 / Self::HOPS as f64;
        }
        ns
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Cross-run determinism: the work counters of one (binary, workload,
/// seed, length) are recorded on the first run and must match on every
/// later one.
fn check_counters_across_runs(a: &Args, counters: &Counters) -> Result<(), String> {
    let exe = std::env::current_exe().and_then(std::fs::metadata).ok();
    let build = exe.map_or(0, |m| {
        common::fingerprint(&(m.len(), m.modified().ok().map(|t| format!("{t:?}"))))
    });
    let path = a.state_dir.join(format!(
        "counters-{}-{}-{}-{}-{build:016x}.txt",
        a.workload, a.seed, a.seconds, a.trace as u8
    ));
    let now = counters.render();
    match std::fs::read_to_string(&path) {
        Ok(before) if before != now => Err(format!(
            "work counters differ from an earlier run of this seed:\n  before: {before}\n  now:    {now}"
        )),
        Ok(_) => Ok(()),
        Err(_) => {
            std::fs::create_dir_all(&a.state_dir).map_err(|e| e.to_string())?;
            std::fs::write(&path, now).map_err(|e| e.to_string())
        }
    }
}

fn json_metrics(metrics: &[(String, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("cb-perf: {e}");
            std::process::exit(2);
        }
    };
    let probe = HostProbe::new();
    let mut probes = vec![probe.run()];
    let mut failures: Vec<String> = Vec::new();

    // Set-ups run on both sides of the measured pass, so the fastest of
    // them is taken from the start or the end of the run, whichever
    // found the host quieter.
    let (before, after) = if args.trace {
        (1, 0)
    } else {
        setup_reps(&args.workload)
    };
    let mut setup_times = Vec::new();
    let mut setup_counters: Vec<Counters> = Vec::new();
    let mut run_setup = |setup_times: &mut Vec<f64>| {
        let t = Instant::now();
        let s = setup(&args);
        setup_times.push(t.elapsed().as_secs_f64());
        setup_counters.push(s.counters.clone());
        s
    };
    let first = run_setup(&mut setup_times);
    let (materialize_s, oracle_s) = (first.materialize_s, first.oracle_s);
    failures.extend(first.failures);
    let mut state = first.state;
    for _ in 1..before {
        // Drop the previous repetition first, so peak memory holds one.
        drop(state);
        state = run_setup(&mut setup_times).state;
    }
    probes.push(probe.run());

    if list_fingerprint(&args.workload, args.seed, args.seconds)
        == list_fingerprint(&args.workload, args.seed + 1, args.seconds)
    {
        failures.push("the next seed yields the same request list".into());
    }

    let mut pass_slowdown: Vec<f64> = Vec::new();
    let (attempted, metrics, counters, diag) = if args.trace {
        let mut tr = Tracer::new();
        let mut tally = LayerTally {
            materialize_s,
            oracle_s,
            ..Default::default()
        };
        match &mut state {
            Workload::Cold(w) => w.trace(&mut tr, &mut tally),
            Workload::Warm(w) => w.trace(&mut tr, &mut tally),
            Workload::Serve(w) => w.trace(&mut tr, &mut tally),
        }
        probes.push(probe.run());
        let mut metrics = tally.metrics(&tr);
        metrics.push(("host.probe_ns_per_hop".into(), median(&probes), "ns"));
        let spans_path = args
            .state_dir
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        let written = std::fs::create_dir_all(&args.state_dir).and_then(|_| tr.write(&spans_path));
        if let Err(e) = written {
            failures.push(format!("writing {}: {e}", spans_path.display()));
        }
        failures.append(&mut tally.failures);
        let diag = format!(
            "traced requests={} optimizations={} spans={} written to {}",
            tally.requests,
            tally.optimizations,
            tr.spans.len(),
            spans_path.display()
        );
        let mut counters = Counters::default();
        counters.add("nodes_visited", tally.replay.nodes_visited as u64);
        counters.add("chase_steps", tally.replay.chase_steps as u64);
        counters.add("candidates", tally.replay.costed as u64);
        counters.add("rows_processed", tally.rows_processed);
        (tally.requests.max(1), metrics, counters, diag)
    } else {
        let m: Measured = match &mut state {
            Workload::Cold(w) => w.measure(&mut || {
                run_setup(&mut setup_times);
            }),
            Workload::Warm(w) => w.measure(),
            Workload::Serve(w) => w.measure(),
        };
        probes.push(probe.run());
        let p = slot_stats(&m, TAIL_BEYOND);
        let metrics = vec![
            ("latency_ms.p50".to_string(), p.p50_ms, "ms"),
            ("latency_ms.tail".to_string(), p.tail_ms, "ms"),
            ("throughput_rps".to_string(), p.throughput_rps, "1/s"),
            ("peak_rss_mb".to_string(), peak_rss_mb(), "MB"),
        ];
        failures.extend(m.failures);
        pass_slowdown = p.pass_slowdown.clone();
        let diag = format!(
            "requests={} in {} passes of {} (p50 and throughput over each slot's best time) \
             tail=p{:.2} of {} requests ({} samples beyond, each time divided by its pass's slowdown) \
             uncorrected_tail_ms={:.4} \
             wait_ms=0 (one closed-loop client: no queueing)",
            p.requests,
            p.pass_slowdown.len(),
            m.pass_len,
            p.tail_pct,
            p.requests,
            p.beyond,
            p.raw_tail_ms
        );
        (m.latencies.len() as u64, metrics, m.counters, diag)
    };
    drop(state);
    for _ in 0..after {
        run_setup(&mut setup_times);
    }
    let mut metrics = metrics;
    if !args.trace {
        metrics.insert(
            3,
            (
                "setup_s".to_string(),
                setup_times.iter().copied().fold(f64::INFINITY, f64::min),
                "s",
            ),
        );
    }
    if setup_counters.windows(2).any(|w| w[0] != w[1]) {
        failures.push("set-up work counters differ between repetitions".into());
    }
    if let Err(e) = check_counters_across_runs(&args, &counters) {
        failures.push(e);
    }

    println!(
        "# cb-perf workload={} seed={} {diag}",
        args.workload, args.seed
    );
    println!("# set-up times (s): {setup_times:?}");
    println!("# host probe ns/hop (start, after set-up, end): {probes:.2?}");
    println!("# work counters: {}", counters.render());
    if !pass_slowdown.is_empty() {
        println!("# slowdown by pass (median request time / slot best): {pass_slowdown:.3?}");
    }
    for f in failures.iter().take(20) {
        println!("# FAILED: {f}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {}}}",
        failures.is_empty(),
        failures.len(),
        json_metrics(&metrics)
    );
}
