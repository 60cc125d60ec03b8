//! Percentiles, summaries and JSON formatting.

use crate::loadgen::Outcome;
use crate::query_of;
use crate::spec::{Plan, Traffic};
use std::time::Duration;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

pub fn json_str(s: &str) -> String {
    format!("\"{}\"", pb_trace::escape_json(s))
}

/// A JSON number with every digit Rust's shortest round-trip formatting gives.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of sorted samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// True when at least ten samples lie beyond the `q` percentile.
pub fn supports(n: usize, q: f64) -> bool {
    n >= 10 && n - ((q * n as f64).ceil() as usize).min(n) >= 10
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn sorted_ms(durations: impl Iterator<Item = Duration>) -> Vec<f64> {
    let mut v: Vec<f64> = durations.map(ms).collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Latency percentiles are medians over consecutive slices of the phase, each of
/// at least this many releases (so a slice's p90 has ten samples beyond it), and at
/// most `MAX_SLICES` of them: a burst of CPU steal from another tenant then moves
/// one slice, not the reported figure, while a slowdown of every release moves all.
const SLICE_MIN: usize = 100;
const MAX_SLICES: usize = 10;

/// Client-observed summary of one phase.
pub struct Summary {
    /// Releases attempted.
    pub samples: usize,
    pub failed: usize,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: Option<f64>,
    pub lag_p99_ms: Option<f64>,
    pub throughput: f64,
    elapsed: Duration,
    /// `(dataset, samples, p50 ms)`: shows e.g. the journal's cost on central
    /// releases next to LDP releases that never write.
    per_dataset: Vec<(&'static str, usize, f64)>,
    slice_p50: Vec<f64>,
    slice_p90: Vec<f64>,
}

impl Summary {
    pub fn of(plan: &Plan, outcomes: &[Outcome], elapsed: Duration) -> Summary {
        let lat = sorted_ms(outcomes.iter().map(|o| o.latency));
        let lag = sorted_ms(outcomes.iter().map(|o| o.lag));
        let failed = outcomes.iter().filter(|o| o.error.is_some()).count();
        let n = lat.len();
        let mut by_time: Vec<&Outcome> = outcomes.iter().collect();
        by_time.sort_by_key(|o| o.finished);
        let slices = (n / SLICE_MIN).clamp(1, MAX_SLICES);
        let mut slice_p50 = Vec::with_capacity(slices);
        let mut slice_p90 = Vec::with_capacity(slices);
        for s in 0..slices {
            let slice = sorted_ms(
                by_time[s * n / slices..(s + 1) * n / slices]
                    .iter()
                    .map(|o| o.latency),
            );
            slice_p50.push(percentile(&slice, 0.5));
            slice_p90.push(percentile(&slice, 0.9));
        }
        Summary {
            samples: n,
            failed,
            p50_ms: median(&slice_p50),
            p90_ms: median(&slice_p90),
            slice_p50,
            slice_p90,
            p99_ms: supports(n, 0.99).then(|| percentile(&lat, 0.99)),
            lag_p99_ms: (matches!(plan.traffic, Traffic::OpenHttp { .. }) && supports(n, 0.99))
                .then(|| percentile(&lag, 0.99)),
            throughput: (n - failed) as f64 / elapsed.as_secs_f64(),
            elapsed,
            per_dataset: plan
                .datasets
                .iter()
                .enumerate()
                .map(|(d, spec)| {
                    let lat = sorted_ms(
                        outcomes
                            .iter()
                            .filter(|o| query_of(plan, o).dataset == d)
                            .map(|o| o.latency),
                    );
                    (spec.name, lat.len(), percentile(&lat, 0.5))
                })
                .collect(),
        }
    }

    /// The informational line of a timed run: sample count, the percentiles the
    /// sample supports, the error rate, set-up times and per-dataset medians.
    pub fn describe(&self, setups: &[f64], rss_mb: f64, steal: Option<f64>) -> String {
        let opt = |v: Option<f64>| v.map_or("null".to_string(), json_num);
        let per_dataset: Vec<String> = self
            .per_dataset
            .iter()
            .map(|(name, n, p50)| {
                format!(
                    "{{\"dataset\": {}, \"samples\": {n}, \"latency_p50_ms\": {}}}",
                    json_str(name),
                    json_num(*p50)
                )
            })
            .collect();
        format!(
            "{{\"samples\": {}, \"slices\": {}, \"window_s\": {}, \"latency_p50_ms\": {}, \"latency_p90_ms\": {}, \
             \"latency_p99_ms\": {}, \"gen_lag_p99_ms\": {}, \"error_rate\": {}, \
             \"setup_runs_s\": {:?}, \"server_rss_mb\": {}, \"cpu_steal_share\": {}, \"per_dataset\": [{}], \"slice_p50_ms\": {:?}, \"slice_p90_ms\": {:?}}}",
            self.samples,
            self.slice_p50.len(),
            json_num(self.elapsed.as_secs_f64()),
            json_num(self.p50_ms),
            json_num(self.p90_ms),
            opt(self.p99_ms),
            opt(self.lag_p99_ms),
            json_num(self.failed as f64 / self.samples.max(1) as f64),
            setups,
            json_num(rss_mb),
            opt(steal),
            per_dataset.join(", "),
            self.slice_p50,
            self.slice_p90,
        )
    }
}

/// Cumulative CPU time counters of the whole machine (`/proc/stat`), to report how
/// much of a phase the hypervisor stole: a noisy neighbour shows up here, not in the
/// program.
pub struct CpuTimes(Option<Vec<u64>>);

impl CpuTimes {
    pub fn read() -> CpuTimes {
        CpuTimes(std::fs::read_to_string("/proc/stat").ok().and_then(|text| {
            let line = text.lines().next()?.strip_prefix("cpu ")?.to_string();
            line.split_whitespace().map(|v| v.parse().ok()).collect()
        }))
    }

    /// Share of all CPU time since `earlier` that was stolen (field 8 of the line).
    pub fn steal_share_since(&self, earlier: &CpuTimes) -> Option<f64> {
        let (now, then) = (self.0.as_ref()?, earlier.0.as_ref()?);
        let deltas: Vec<u64> = now.iter().zip(then).map(|(a, b)| a - b).collect();
        let total: u64 = deltas.iter().sum();
        (total > 0 && deltas.len() > 7).then(|| deltas[7] as f64 / total as f64)
    }
}
