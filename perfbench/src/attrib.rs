//! The traced run: attributes releases to the crates they pass through.
//!
//! Layers are measured from outside, two ways:
//!
//! * the server's own observability — the span tree of every traced TCP release
//!   (the `trace` op) and, over HTTP, `/metrics` stage-histogram deltas;
//! * timed calls into the layers' public functions in this process — parsing,
//!   partitioning, index and context builds, and a replay of every traced release
//!   through `PrivBasis::run_shared_observed` (or `run_shared_transformed` for LDP
//!   datasets) over the same rows, shards, k, ε and seed. The replay doubles as the
//!   output check: each served release's `itemsets` bytes must equal the in-process
//!   release encoded by the same `pb-proto` encoder.

use crate::loadgen::{self, HttpConn, Outcome};
use crate::spec::{Mode, Plan, Query, Traffic, Workload};
use crate::stats::{self, Metric};
use crate::{query_of, setup, state_dir, Checks, Input, Ledger, Report};
use pb_core::{construct_basis_set, PhaseObserver, PrivBasis, PrivBasisParams, QueryContext};
use pb_dp::Epsilon;
use pb_fim::{TransactionDb, VerticalIndex};
use pb_proto::message::{QueryReply, ReleasedItemset, Response};
use pb_shard::ShardedDb;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where each per-layer metric must have been observed: a traced run of one of these
/// workloads fails when the metric has no sample.
const REQUIRED: &[(&str, &[Workload])] = {
    use Workload::{ColdTheta as C, DurableHttp as D, WarmMix as W};
    &[
        ("proto.client_overhead_ms", &[W, C, D]),
        ("service.parse_ms", &[W, C, D]),
        ("service.admission_ms", &[W, C, D]),
        ("service.encode_ms", &[W, C, D]),
        ("service.debit_ms", &[W, C, D]),
        ("service.other_ms", &[W, C, D]),
        ("core.lambda_ms", &[W, C, D]),
        ("core.lambda_self_ms", &[W, C, D]),
        ("fim.theta_mine_ms", &[W, C, D]),
        ("shard.kth_support_ms", &[W]),
        ("core.theta_hit_ratio", &[W, C, D]),
        ("core.select_items_ms", &[W, C, D]),
        ("core.select_pairs_ms", &[W]),
        ("core.construct_ms", &[W]),
        ("graph.construct_basis_ms", &[W]),
        ("core.count_ms", &[W, C, D]),
        ("core.noise_draw_ms", &[W]),
        ("shard.merge_ms", &[W]),
        ("core.reconstruct_ms", &[W]),
        ("core.consistency_ms", &[W, C, D]),
        ("core.debias_ms", &[W, D]),
        ("core.lambda", &[W, C, D]),
        ("core.bases", &[W, C, D]),
        ("core.candidates", &[W, C, D]),
        ("fim.parse_ms", &[W, C, D]),
        ("fim.index_build_ms", &[W, C, D]),
        ("shard.partition_ms", &[W]),
        ("core.context_build_ms", &[W, C, D]),
        ("ldp.perturb_ms", &[W, D]),
        ("loadgen.gen_lag_ms", &[D]),
        ("trace.overhead_p50_ms", &[W, C, D]),
    ]
};

/// Server stage spans, as the trace names them, and the metric each feeds.
const STAGES: &[(&str, &str)] = &[
    ("parse", "service.parse_ms"),
    ("admission", "service.admission_ms"),
    ("encode", "service.encode_ms"),
    ("debit", "service.debit_ms"),
    ("lambda", "core.lambda_ms"),
    ("select_items", "core.select_items_ms"),
    ("select_pairs", "core.select_pairs_ms"),
    ("construct", "core.construct_ms"),
    ("count", "core.count_ms"),
    ("noise_draw", "core.noise_draw_ms"),
    ("shard_merge", "shard.merge_ms"),
    ("reconstruct", "core.reconstruct_ms"),
    ("consistency", "core.consistency_ms"),
    ("debias", "core.debias_ms"),
];

/// Per-metric accumulator: a mean over `n` samples, `seen` once the layer was
/// actually observed (a release that skips a stage adds a zero sample).
#[derive(Default)]
struct Acc {
    sum: f64,
    n: u64,
    seen: bool,
}

#[derive(Default)]
struct Layers(BTreeMap<&'static str, Acc>);

impl Layers {
    fn add(&mut self, name: &'static str, value: f64) {
        self.add_total(name, value, 1, true);
    }

    /// Adds a total over `n` samples.
    fn add_total(&mut self, name: &'static str, total: f64, n: u64, seen: bool) {
        let acc = self.0.entry(name).or_default();
        acc.sum += total;
        acc.n += n;
        acc.seen |= seen;
    }

    fn mean(&self, name: &str) -> f64 {
        self.0
            .get(name)
            .filter(|a| a.n > 0)
            .map_or(0.0, |a| a.sum / a.n as f64)
    }

    fn sampled(&self, name: &str) -> bool {
        self.0.get(name).is_some_and(|a| a.seen)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One traced run: set-up, an untraced phase and a traced phase of half the window
/// each, then the in-process measurements and replay.
pub fn traced_run(
    bin: &Path,
    plan: &Plan,
    inputs: &[Input],
    work: &Path,
    window: Duration,
    info: &mut Vec<String>,
) -> Result<Report, String> {
    let half = window / 2;
    let dir = state_dir(plan, work, 0);
    let (server, _, warm) = setup(bin, plan, inputs, dir.as_deref())?;
    let mut checks = Checks::default();
    let mut ledger = Ledger::new(plan);
    ledger.add(plan, &warm, &mut checks);
    let mut cursors = vec![0; plan.lists.len()];
    // The untraced half may use at most the first half of each query list, so a
    // finite list (cold-theta's fresh k values) always leaves releases to trace.
    let mut first_half = plan.clone();
    for list in &mut first_half.lists {
        list.truncate(list.len() / 2);
    }
    let untraced_started = Instant::now();
    let untraced = loadgen::run_phase(
        &first_half,
        server.tcp,
        server.http,
        &mut cursors,
        half,
        false,
    )?;
    let untraced_summary = stats::Summary::of(plan, &untraced, untraced_started.elapsed());
    ledger.add(plan, &untraced, &mut checks);
    let before = scrape(server.http)?;
    let traced = loadgen::run_phase(plan, server.tcp, server.http, &mut cursors, half, true)?;
    let after = scrape(server.http)?;
    ledger.add(plan, &traced, &mut checks);
    ledger.verify(plan, &server, &mut checks)?;
    server.shutdown()?;
    if traced.is_empty() {
        return Err("the traced phase completed no release".to_string());
    }
    let traced_summary = stats::Summary::of(plan, &traced, half);

    for o in &traced {
        let q = query_of(plan, o);
        let ldp = matches!(plan.datasets[q.dataset].mode, Mode::Ldp { .. });
        if ldp && o.trace.as_ref().is_some_and(|t| t.has_span("debit")) {
            checks.fail(format!("LDP release {:?} has a debit span", o.id));
        }
    }
    let mut layers = Layers::default();
    let n = traced.len() as u64;
    match plan.traffic {
        Traffic::ClosedTcp { .. } => span_layers(&traced, &mut layers),
        Traffic::OpenHttp { .. } => {
            metrics_layers(&before, &after, &traced, &mut layers, &mut checks)
        }
    }
    layers.add(
        "trace.overhead_p50_ms",
        traced_summary.p50_ms - untraced_summary.p50_ms,
    );
    if let Traffic::OpenHttp { .. } = plan.traffic {
        for o in &untraced {
            layers.add("loadgen.gen_lag_ms", ms(o.lag));
        }
    }
    for input in inputs {
        if let Some(perturb) = input.perturb {
            layers.add("ldp.perturb_ms", ms(perturb));
        }
    }
    let contexts = build_contexts(plan, inputs, &mut layers)?;
    replay(plan, &contexts, &warm, &traced, &mut layers, &mut checks)?;

    let mut metrics = Vec::new();
    for &(name, required_on) in REQUIRED {
        let unit = if name.ends_with("_ms") {
            "ms"
        } else if name == "core.theta_hit_ratio" {
            "ratio"
        } else {
            "count"
        };
        if required_on.contains(&plan.workload) && !layers.sampled(name) {
            checks.fail(format!(
                "per-layer metric {name} was not measured on {}",
                plan.workload.name()
            ));
        }
        metrics.push(Metric::new(name, unit, layers.mean(name)));
    }
    info.push(format!(
        "{{\"traced_releases\": {n}, \"untraced_latency_p50_ms\": {}, \"traced_latency_p50_ms\": {}, \
         \"checked_itemsets_bytes\": {}}}",
        stats::json_num(untraced_summary.p50_ms),
        stats::json_num(traced_summary.p50_ms),
        traced.iter().filter(|o| o.raw.is_some()).count(),
    ));
    let attempted = warm.len() + untraced.len() + traced.len();
    let failed = [&warm, &untraced, &traced]
        .iter()
        .flat_map(|v| v.iter())
        .filter(|o| o.error.is_some())
        .count();
    Ok(checks.into_report(attempted, failed, metrics))
}

/// Per-release stage means from the span tree of every traced TCP release.
fn span_layers(traced: &[Outcome], layers: &mut Layers) {
    for o in traced {
        let Some(trace) = &o.trace else { continue };
        let total_ms = trace.total_us as f64 / 1e3;
        layers.add("proto.client_overhead_ms", ms(o.latency) - total_ms);
        let mut covered = 0.0;
        for &(span, metric) in STAGES {
            let spent: f64 = trace
                .spans
                .iter()
                .filter(|s| s.name == span)
                .map(|s| s.duration_us() as f64 / 1e3)
                .sum();
            covered += spent;
            // Absent stages count as zero time, so stage means add up per release.
            layers.add_total(metric, spent, 1, trace.has_span(span));
        }
        layers.add("service.other_ms", total_ms - covered);
    }
}

/// Stage means over HTTP releases from `/metrics` histogram deltas (HTTP requests
/// carry no client-chosen trace id, and the gateway encodes outside the trace, so
/// `service.encode_ms` comes from the replay).
fn metrics_layers(
    before: &Scrape,
    after: &Scrape,
    traced: &[Outcome],
    layers: &mut Layers,
    checks: &mut Checks,
) {
    let n = traced.len() as u64;
    let mut covered = 0.0;
    for &(span, metric) in STAGES.iter().filter(|(span, _)| *span != "encode") {
        let (sum_s, count) = Scrape::delta(&before.stages, &after.stages, span);
        layers.add_total(metric, sum_s * 1e3, n, count > 0);
        covered += sum_s * 1e3;
    }
    let (request_s, requests) = Scrape::delta(&before.requests, &after.requests, "query");
    if requests != n {
        checks.fail(format!(
            "/metrics counted {requests} query requests for {n} traced releases"
        ));
    }
    layers.add_total("service.other_ms", request_s * 1e3 - covered, n, true);
    let sent: f64 = traced.iter().map(|o| ms(o.latency - o.lag)).sum();
    layers.add_total("proto.client_overhead_ms", sent - request_s * 1e3, n, true);
}

/// One dataset's in-process serving state.
struct Replica {
    context: QueryContext,
    db: Arc<TransactionDb>,
    sharded: Option<Arc<ShardedDb>>,
    channel: Option<pb_ldp::LdpChannel>,
}

/// Parses every input and builds its context the way the server does, timing each
/// layer's public entry point. Set-up metrics are totals over the workload's datasets.
fn build_contexts(
    plan: &Plan,
    inputs: &[Input],
    layers: &mut Layers,
) -> Result<Vec<Replica>, String> {
    let mut totals: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut timed = |name: &'static str, started: Instant| {
        *totals.entry(name).or_default() += ms(started.elapsed());
    };
    let mut replicas = Vec::new();
    for (input, spec) in inputs.iter().zip(&plan.datasets) {
        let t = Instant::now();
        let db = pb_fim::io::read_fimi_file(&input.path)
            .map_err(|e| format!("reading {}: {e}", input.path.display()))?;
        timed("fim.parse_ms", t);
        let db = Arc::new(db);
        let (context, sharded) = if spec.shards > 1 {
            let t = Instant::now();
            let sharded = Arc::new(ShardedDb::partition(&db, spec.shards));
            timed("shard.partition_ms", t);
            // The server builds the context on first query and each shard's index on
            // first use; built here in the same order.
            let t = Instant::now();
            let context = QueryContext::sharded(Arc::clone(&sharded));
            timed("core.context_build_ms", t);
            let t = Instant::now();
            for shard in sharded.shards() {
                std::hint::black_box(shard.index());
            }
            timed("fim.index_build_ms", t);
            (context, Some(sharded))
        } else {
            let t = Instant::now();
            std::hint::black_box(VerticalIndex::build(&db));
            timed("fim.index_build_ms", t);
            // Includes its own index build, as on the server.
            let t = Instant::now();
            let context = QueryContext::new(Arc::clone(&db));
            timed("core.context_build_ms", t);
            (context, None)
        };
        let channel = match spec.mode {
            Mode::Central => None,
            Mode::Ldp {
                epsilon_local,
                universe,
                pad,
            } => Some(
                pb_ldp::LdpChannel::new(epsilon_local, universe, pad)
                    .map_err(|e| format!("LDP channel: {e}"))?,
            ),
        };
        replicas.push(Replica {
            context,
            db,
            sharded,
            channel,
        });
    }
    for (name, total) in totals {
        layers.add(name, total);
    }
    Ok(replicas)
}

/// A phase observer on this process's clock.
struct Recorder {
    epoch: Instant,
    phases: RefCell<Vec<(&'static str, u64)>>,
}

impl PhaseObserver for Recorder {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn phase(&self, name: &'static str, started: u64, ended: u64) {
        self.phases
            .borrow_mut()
            .push((name, ended.saturating_sub(started)));
    }
}

/// Replays the warm-up and every traced release in process: checks the served bytes
/// and measures θ memo behaviour, θ mining, basis construction and encoding.
fn replay(
    plan: &Plan,
    replicas: &[Replica],
    warm: &[Outcome],
    traced: &[Outcome],
    layers: &mut Layers,
    checks: &mut Checks,
) -> Result<(), String> {
    let params = PrivBasisParams::default();
    let pb = PrivBasis::new(params.clone());
    for (is_traced, o) in warm
        .iter()
        .map(|o| (false, o))
        .chain(traced.iter().map(|o| (true, o)))
    {
        let q: Query = query_of(plan, o);
        let replica = &replicas[q.dataset];
        let name = plan.datasets[q.dataset].name;
        let recorder = Recorder {
            epoch: Instant::now(),
            phases: RefCell::new(Vec::new()),
        };
        let cached = replica.context.theta_cache_len();
        let mut rng = StdRng::seed_from_u64(q.seed);
        let output = match &replica.channel {
            None => pb.run_shared_observed(
                &mut rng,
                &replica.context,
                q.k,
                Epsilon::Finite(q.epsilon),
                &recorder,
            ),
            Some(channel) => {
                let n = replica.db.len() as u64;
                let debias = move |itemset: &pb_fim::ItemSet, observed: f64| {
                    channel.debias(observed, n, itemset.len())
                };
                pb.run_shared_transformed(
                    &mut rng,
                    &replica.context,
                    q.k,
                    Epsilon::Infinite,
                    &debias,
                    &recorder,
                )
            }
        }
        .map_err(|e| format!("in-process release of {name} k={}: {e}", q.k))?;
        let miss = replica.context.theta_cache_len() > cached;
        let lambda_phase: u64 = recorder
            .phases
            .borrow()
            .iter()
            .filter(|(p, _)| *p == "lambda")
            .map(|(_, d)| d)
            .sum();
        let mut theta_child = 0.0;
        if miss {
            // The θ anchor the miss mined, timed through the layer that mines it.
            let k1 = ((q.k as f64 * params.eta_for(q.k)).ceil() as usize).max(1);
            let t = Instant::now();
            match &replica.sharded {
                None => {
                    std::hint::black_box(pb_fim::topk::top_k_itemsets(&replica.db, k1, None));
                    theta_child = ms(t.elapsed());
                    layers.add("fim.theta_mine_ms", theta_child);
                }
                Some(sharded) => {
                    std::hint::black_box(sharded.kth_support_count(k1));
                    theta_child = ms(t.elapsed());
                    layers.add("shard.kth_support_ms", theta_child);
                }
            }
        }
        if !is_traced {
            continue;
        }
        layers.add("core.theta_hit_ratio", if miss { 0.0 } else { 1.0 });
        layers.add(
            "core.lambda_self_ms",
            (lambda_phase as f64 / 1e6 - theta_child).max(0.0),
        );
        layers.add("core.lambda", output.lambda as f64);
        layers.add("core.bases", output.basis_set.bases().len() as f64);
        layers.add("core.candidates", output.candidate_count as f64);
        if output.lambda > params.single_basis_lambda {
            let t = Instant::now();
            std::hint::black_box(construct_basis_set(
                &output.frequent_items,
                &output.frequent_pairs,
                params.max_basis_len,
            ));
            layers.add("graph.construct_basis_ms", ms(t.elapsed()));
        } else {
            // Single-basis path: nothing to construct.
            layers.add_total("graph.construct_basis_ms", 0.0, 1, false);
        }
        let Some(raw) = &o.raw else { continue };
        let charged = match plan.datasets[q.dataset].mode {
            Mode::Central => q.epsilon,
            Mode::Ldp { .. } => 0.0,
        };
        // Built here from the pb-proto types, not by the server's own reply builder,
        // so a serving-layer defect cannot hide in both sides of the comparison.
        let reply = QueryReply {
            dataset: name.to_string(),
            epsilon_spent: charged,
            remaining_budget: 0.0,
            seed: q.seed,
            lambda: output.lambda as u64,
            candidate_count: output.candidate_count as u64,
            itemsets: output
                .itemsets
                .iter()
                .map(|(itemset, count)| ReleasedItemset {
                    items: itemset.iter().collect(),
                    count: *count,
                })
                .collect(),
        };
        let t = Instant::now();
        let encoded = Response::Query(reply).encode(2, o.id.as_deref());
        if let Traffic::OpenHttp { .. } = plan.traffic {
            layers.add("service.encode_ms", ms(t.elapsed()));
        }
        if itemsets_of(raw) != itemsets_of(&encoded) || itemsets_of(raw).is_none() {
            checks.fail(format!(
                "{name} k={} ε={} seed={}: served itemsets differ from the in-process release",
                q.k, q.epsilon, q.seed
            ));
        }
    }
    Ok(())
}

/// The `"itemsets":[...]` tail of an encoded query response.
fn itemsets_of(encoded: &str) -> Option<&str> {
    encoded.find("\"itemsets\":").map(|at| &encoded[at..])
}

/// Sum and count of one Prometheus histogram series.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hist {
    pub sum_s: f64,
    pub count: u64,
}

/// The latency histograms of one `/metrics` scrape.
pub struct Scrape {
    stages: BTreeMap<String, Hist>,
    requests: BTreeMap<String, Hist>,
}

impl Scrape {
    pub fn stage(&self, name: &str) -> Option<Hist> {
        self.stages.get(name).copied()
    }

    /// `(Δsum seconds, Δcount)` of one series between two scrapes.
    fn delta(
        before: &BTreeMap<String, Hist>,
        after: &BTreeMap<String, Hist>,
        key: &str,
    ) -> (f64, u64) {
        let a = after.get(key).copied().unwrap_or_default();
        let b = before.get(key).copied().unwrap_or_default();
        (a.sum_s - b.sum_s, a.count.saturating_sub(b.count))
    }
}

/// Fetches `/metrics` and keeps the `_sum`/`_count` of the per-stage and per-op
/// latency histograms.
pub fn scrape(http: SocketAddr) -> Result<Scrape, String> {
    let (status, text) = HttpConn::connect(http)?.request("GET", "/metrics", "")?;
    if status != 200 {
        return Err(format!("GET /metrics answered {status}"));
    }
    let mut scrape = Scrape {
        stages: BTreeMap::new(),
        requests: BTreeMap::new(),
    };
    for line in text.lines() {
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let (family, label) = if let Some(rest) = series.strip_prefix("pb_stage_duration_seconds_")
        {
            (&mut scrape.stages, rest)
        } else if let Some(rest) = series.strip_prefix("pb_request_duration_seconds_") {
            (&mut scrape.requests, rest)
        } else {
            continue;
        };
        let Some((kind, labels)) = label.split_once('{') else {
            continue;
        };
        let Some(key) = labels.split('"').nth(1) else {
            continue;
        };
        let entry = family.entry(key.to_string()).or_default();
        match kind {
            "sum" => entry.sum_s = value.parse().unwrap_or(f64::NAN),
            "count" => entry.count = value.parse().unwrap_or(0),
            _ => {}
        }
    }
    Ok(scrape)
}
