//! The verifier's benchmark: one binary, three workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <verify|explore|serve|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! * `verify` — sequential `idar_solver::analyze` calls over seeded
//!   scenario forms and Table-1 reduction instances, as the default
//!   server runs them: its budget, one closed-loop caller per server
//!   worker, and each analysis with the worker's explorer-thread share.
//! * `explore` — `WorkflowGraph::build` of four large forms at the
//!   library's default thread count.
//! * `serve` — an in-process `idar-server` driven by a closed loop of two
//!   connections: ~70% session users, ~30% `POST /v1/analyze`. Its
//!   figures follow the host's thread wake-up latency: over ten seeds on
//!   a two-vCPU host their spread reached the largest allowed bound, so
//!   `BENCHMARK.json` does not list it. It runs on its own, and its traced
//!   replay runs inside the `verify` traced run, which therefore reports
//!   the server's layers too.
//!
//! Every workload makes its inputs from `--seed`, measures a closed loop
//! for `--seconds`, checks every verdict against an answer the program
//! did not compute (see `reference.rs` and each workload), prints a table
//! of its own metrics with units and sample counts, and prints as its
//! last line one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. A failed check prints `"correct": false` and exits 1.
//!
//! With `--trace 0` the JSON carries the end-to-end metrics.
//! `BENCHMARK.json` has every workload report every one of them, so each
//! is defined per workload below; the workload's own names (`analyze_p99_ms`,
//! `session_p50_ms`, `states_per_s`, `failed_share`, ...) are in the
//! printed table, p99s included. The tail metric here is the p90: on a
//! two-core host the p99 of `serve` exchanges moves with the host's speed
//! two to three times as much as the p50 does, too much to hold a bound.
//! For `verify` and `explore`, rates are totals over the measured phase
//! and latency percentiles pool its every sample, which averages over the
//! host's slow and fast spells; for `serve`, rate and percentiles are
//! medians over one-second windows. Memory is the median over rounds of
//! each round's peak:
//!
//! | metric            | verify                 | explore                  | serve                       |
//! |-------------------|------------------------|--------------------------|-----------------------------|
//! | round             | between two finished passes | one pass over the inputs | one second             |
//! | `setup_s`         | median of 9 input generations | same              | same, plus server start     |
//! | `peak_rss_mb`     | `VmHWM` of this process, restarted each round | same | same                       |
//! | `p50_ms`          | one `analyze` call     | median pass              | one HTTP exchange           |
//! | `p90_ms`          | one `analyze` call     | slowest pass             | one HTTP exchange           |
//! | `ops_per_s`       | analyses per second, all callers | states per second | requests per second       |
//! | `decided_share`   | verdicts not Unknown   | graphs that closed       | `/v1/analyze` verdicts not Unknown |
//!
//! With `--trace 1` the JSON carries the per-layer metrics of a separate
//! traced run (`LAYER_METRICS`). A layer the workload does not enter
//! reads 0.
//!
//! No counting allocator is installed: allocation counting distorts
//! multi-threaded timings.

mod explore;
mod reference;
mod serve;
mod stats;
mod verify;

use stats::{Metric, Metrics};

/// End-to-end metrics, as `BENCHMARK.json` lists them.
const E2E_METRICS: [&str; 6] = [
    "setup_s",
    "peak_rss_mb",
    "p50_ms",
    "p90_ms",
    "ops_per_s",
    "decided_share",
];

/// Per-layer metrics of the traced runs, with their units, as
/// `BENCHMARK.json` lists them.
const LAYER_METRICS: [(&str, &str); 46] = [
    // explore
    ("core.guarded.allowed_updates.ns_per_state", "ns"),
    ("core.guarded.apply.ns_per_edge", "ns"),
    ("core.intern.canon_key.ns_per_edge", "ns"),
    ("solver.store.intern.ns_per_edge", "ns"),
    ("solver.explore.new_state_ratio", "ratio"),
    ("solver.explore.graph_s", "s"),
    ("workflow.graph.annotate_s", "s"),
    ("solver.store.bytes_per_state", "B"),
    ("solver.explore.states", "count"),
    ("solver.explore.transitions", "count"),
    ("solver.store.collisions", "count"),
    // verify
    ("core.fragment.classify_us", "us"),
    ("solver.screen.ms", "ms"),
    ("solver.screen.decided_share", "ratio"),
    ("solver.screen.prune_us", "us"),
    ("solver.depth1.ms", "ms"),
    ("solver.depth1.calls", "count"),
    ("solver.explore.bounded_ms", "ms"),
    ("solver.explore.bounded_calls", "count"),
    ("solver.np.ms", "ms"),
    ("solver.np.calls", "count"),
    ("solver.positive.ms", "ms"),
    ("solver.positive.calls", "count"),
    ("solver.reachable.ms", "ms"),
    ("solver.reachable.calls", "count"),
    ("solver.states_explored", "count"),
    ("solver.screen.dead_rules", "count"),
    ("solver.unknown_by_limit", "count"),
    // serve (the verify traced run measures these too)
    ("server.client.connect_us", "us"),
    ("server.http.read_request_us", "us"),
    ("server.http.write_us", "us"),
    ("server.transport_queue_us", "us"),
    ("server.transport_queue_us.session", "us"),
    ("server.transport_queue_us.analyze", "us"),
    ("workflow.manager.safe_updates_us", "us"),
    ("workflow.manager.vet_us", "us"),
    ("workflow.manager.submit_us", "us"),
    ("workflow.manager.graph_hit_rate", "ratio"),
    ("workflow.manager.open_ms", "ms"),
    ("core.serialize.from_ron_us", "us"),
    ("workflow.manager.cold_solves", "count"),
    ("solver.cache.probe_us", "us"),
    ("solver.cache.hit_rate", "ratio"),
    ("server.metrics.shed", "count"),
    ("server.metrics.graph_evictions", "count"),
    // every workload: traced replay time over untraced time, minus one
    ("bench.trace_overhead_share", "ratio"),
];

/// The outcome of one workload run.
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
    pub metrics: Metrics,
    context: Vec<String>,
}

impl Run {
    pub fn new(setup_s: f64) -> Run {
        let mut metrics = Metrics::default();
        metrics.put("setup_s", "s", setup_s, stats::SETUP_REPEATS);
        Run {
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
            metrics,
            context: Vec::new(),
        }
    }

    /// Record a failed correctness check.
    pub fn mismatch(&mut self, what: impl Into<String>) {
        let what = what.into();
        // Keep the report readable when one defect repeats every pass.
        if self.mismatches.len() < 20 {
            self.mismatches.push(what);
        }
        if self.mismatches.len() == 20 {
            self.mismatches.push("(further mismatches omitted)".into());
        }
    }

    /// A `key=value` line of run context, printed in the header.
    pub fn context(&mut self, line: String) {
        self.context.push(line);
    }

    /// Fold in another run: its counts, its mismatches, its context and
    /// the metrics this run does not report itself.
    pub fn absorb(&mut self, other: Run) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.mismatches {
            self.mismatch(e);
        }
        self.context.extend(other.context);
        for m in other.metrics.0 {
            if self.metrics.get(&m.name).is_none() {
                self.metrics.0.push(m);
            }
        }
    }

    /// Report the workload-native metric `native` also as `generic`.
    pub fn alias(&mut self, generic: &str, native: &str) {
        let m = self
            .metrics
            .get(native)
            .expect("native metric recorded")
            .clone();
        self.metrics.put(generic, m.unit, m.value, m.samples);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// `--workload all`: run each workload in a child process of its own, so
/// that `peak_rss_mb` belongs to that workload alone, and exit non-zero
/// if any of them does.
fn run_all(args: &Args) -> ! {
    let exe = std::env::current_exe().expect("the running binary has a path");
    let mut ok = true;
    for workload in ["verify", "explore", "serve"] {
        let status = std::process::Command::new(&exe)
            .args(["--workload", workload])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .expect("spawn a workload process");
        ok &= status.success();
    }
    std::process::exit(if ok { 0 } else { 1 });
}

fn json_metric(m: &Metric) -> String {
    assert!(m.value.is_finite(), "metric {} is not finite", m.name);
    format!(
        "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
        m.name, m.value, m.unit
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let (seed, secs, trace) = (args.seed, args.seconds, args.trace);
    if args.workload == "all" {
        run_all(&args);
    }
    let mut run = match args.workload.as_str() {
        "verify" => verify::run(seed, secs, trace),
        "explore" => explore::run(seed, secs, trace),
        "serve" => serve::run(seed, secs, trace),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (verify, explore, serve, all)");
            std::process::exit(2);
        }
    };
    if run.metrics.get("peak_rss_mb").is_none() {
        run.metrics
            .put("peak_rss_mb", "MB", stats::peak_rss_mb(), 1);
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "# workload={} seed={seed} seconds={secs} trace={} nproc={nproc} {}",
        args.workload,
        u8::from(trace),
        run.context.join(" ")
    );
    for m in &run.metrics.0 {
        println!(
            "{:<44} {:>16.6} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for e in &run.mismatches {
        println!("MISMATCH {e}");
    }

    let reported: Vec<Metric> = if trace {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| Metric {
                name: name.to_string(),
                unit,
                value: run.metrics.get(name).map_or(0.0, |m| m.value),
                samples: 0,
            })
            .collect()
    } else {
        E2E_METRICS
            .iter()
            .map(|name| {
                run.metrics
                    .get(name)
                    .expect("every workload reports it")
                    .clone()
            })
            .collect()
    };
    let correct = run.mismatches.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.attempted.max(1),
        run.failed,
        reported
            .iter()
            .map(json_metric)
            .collect::<Vec<_>>()
            .join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
