//! Measurement helpers shared by the workloads: percentiles, process
//! memory, timing of a repeated set-up, and the metric record every
//! workload returns.

use std::time::{Duration, Instant};

/// One reported number: its name as `BENCHMARK.json` lists it, its unit,
/// its value, and how many samples stand behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

/// The metrics of one run, in insertion order.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.0.push(Metric {
            name: name.to_string(),
            unit,
            value,
            samples,
        });
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort ascending (NaN-free input).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v
}

/// Median of a sample set.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    if s.is_empty() {
        return 0.0;
    }
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Put `<prefix>_p50_ms`, `<prefix>_p90_ms` and `<prefix>_p99_ms` of
/// millisecond samples.
pub fn put_latency(m: &mut Metrics, prefix: &str, ms: &[f64]) {
    let s = sorted(ms.to_vec());
    for p in [50, 90, 99] {
        let name = format!("{prefix}_p{p}_ms");
        m.put(&name, "ms", percentile(&s, f64::from(p)), s.len());
    }
}

/// [`put_latency`] over rounds: each percentile of each round's own
/// samples, reported as the median over rounds. The sample count is
/// every sample of every round.
pub fn put_round_latency(m: &mut Metrics, prefix: &str, rounds: &[Vec<f64>]) {
    let n = rounds.iter().map(Vec::len).sum();
    for p in [50, 90, 99] {
        let per_round: Vec<f64> = rounds
            .iter()
            .filter(|r| !r.is_empty())
            .map(|r| percentile(&sorted(r.clone()), f64::from(p)))
            .collect();
        m.put(&format!("{prefix}_p{p}_ms"), "ms", median(&per_round), n);
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Restart the peak resident set size (`VmHWM`) from the current
/// resident set, so that each round of a run reports its own peak.
pub fn reset_peak_rss() {
    // Writing "5" to clear_refs resets VmHWM (Linux 4.0 and later).
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Median over rounds of each round's peak resident set size.
pub fn put_round_rss(m: &mut Metrics, per_round_mb: &[f64]) {
    m.put(
        "peak_rss_mb",
        "MB",
        median(per_round_mb),
        per_round_mb.len(),
    );
}

/// How many times a workload repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 9;

/// Run `setup` [`SETUP_REPEATS`] times and return the last result with
/// the median wall time in seconds.
pub fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        // Drop the previous result before building the next one, so a
        // repeat does not pay for freeing its predecessor.
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Milliseconds as f64.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// splitmix64: the benchmark's own generator for schedules and picks,
/// so that inputs are a pure function of `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}
