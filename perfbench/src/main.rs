//! `perfbench` — the client-observed release benchmark of PrivBasis.
//!
//! Run from the root of a checkout:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload warm-mix --seed 1 --seconds 30 --trace 0
//! ```
//!
//! It builds `privbasis-cli`, generates the workload's inputs from the seed, starts
//! `privbasis-cli serve` as a child process, drives it with the repository's own
//! clients and prints every metric by name with its unit. The last stdout line is one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod attrib;
mod loadgen;
mod server;
mod spec;
mod stats;

use loadgen::Outcome;
use pb_proto::message::{LdpParams, RegisterLdpRequest, RegisterRequest, RegisterSource};
use pb_proto::PbClient;
use server::{Server, ADMIN_TOKEN};
use spec::{DatasetSpec, Mode, Plan, Traffic, Workload, CENTRAL_BUDGET};
use stats::{json_str, Metric};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Setups per timed run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or_else(|| {
                    format!("unknown workload `{name}` (warm-mix, cold-theta, durable-http)")
                })?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds must be a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            for line in &report.info {
                println!("{line}");
            }
            println!("{}", report.result_line());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                for failure in &report.failures {
                    eprintln!("perfbench: check failed: {failure}");
                }
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// What a run prints.
pub struct Report {
    info: Vec<String>,
    correct: bool,
    failures: Vec<String>,
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Report {
    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(m.name),
                    stats::json_num(m.value),
                    json_str(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A generated input file and what it holds.
pub struct Input {
    pub spec: DatasetSpec,
    pub path: PathBuf,
    pub rows: usize,
    pub items: usize,
    /// Time to perturb the rows through the LDP channel (LDP datasets only).
    pub perturb: Option<Duration>,
}

/// The run's work directory inside the checkout; removed on drop.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only removes the parent when no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run(args: &Args) -> Result<Report, String> {
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("Cargo.toml").is_file() || !root.join("crates").is_dir() {
        return Err("run from the root of a privbasis checkout".to_string());
    }
    let bin = server::build_server(&root)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut plan = Plan::new(args.workload, args.seed, nproc);
    let work = WorkDir(root.join(".perfbench-work").join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    )));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("cannot create work dir: {e}"))?;
    let inputs = generate_inputs(&mut plan, &work.0)?;
    let window = Duration::from_secs_f64(args.seconds);
    let mut info = vec![describe(args, &plan, &inputs, &root, nproc)];
    let report = if args.trace {
        attrib::traced_run(&bin, &plan, &inputs, &work.0, window, &mut info)?
    } else {
        timed_run(&bin, &plan, &inputs, &work.0, window, &mut info)?
    };
    Ok(Report { info, ..report })
}

/// Generates every dataset of the plan into `dir` as a FIMI file. LDP datasets are
/// perturbed here, client-side, before the server ever sees them.
fn generate_inputs(plan: &mut Plan, dir: &Path) -> Result<Vec<Input>, String> {
    let mut inputs = Vec::new();
    for spec in &mut plan.datasets {
        let db = spec.profile.generate(spec.scale, spec.gen_seed);
        let mut perturb = None;
        let db = match &mut spec.mode {
            Mode::Central => db,
            Mode::Ldp {
                epsilon_local,
                universe,
                pad,
            } => {
                *universe = db.item_universe().last().map_or(1, |&max| max + 1);
                *pad = db.iter().map(|t| t.len()).max().unwrap_or(1).max(1);
                let channel = pb_ldp::LdpChannel::new(*epsilon_local, *universe, *pad)
                    .map_err(|e| format!("LDP channel: {e}"))?;
                let rows: Vec<Vec<u32>> = db.iter().map(|t| t.iter().collect()).collect();
                let mut rng =
                    <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(spec.gen_seed ^ 0x1d9);
                let started = Instant::now();
                let perturbed = channel.perturb_rows(&mut rng, &rows);
                perturb = Some(started.elapsed());
                pb_fim::TransactionDb::from_transactions(perturbed)
            }
        };
        let path = dir.join(format!("{}.dat", spec.name));
        pb_fim::io::write_fimi_file(&db, &path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        inputs.push(Input {
            spec: spec.clone(),
            path,
            rows: db.len(),
            items: db.num_distinct_items(),
            perturb,
        });
    }
    Ok(inputs)
}

/// Starts a server, registers every dataset and runs the warm-up queries. Returns the
/// server, the set-up time (spawn → end of warm-up) and the warm-up outcomes.
pub fn setup(
    bin: &Path,
    plan: &Plan,
    inputs: &[Input],
    state_dir: Option<&Path>,
) -> Result<(Server, f64, Vec<Outcome>), String> {
    // `serve` needs one dataset on its command line to start; the first (always
    // central and unsharded) goes there, the rest are hot-registered.
    let (first, rest) = inputs.split_first().ok_or("a workload needs a dataset")?;
    assert!(first.spec.mode == Mode::Central && first.spec.shards == 1);
    let listed = format!("{}={}", first.spec.name, first.path.display());
    let started = Instant::now();
    let server = Server::spawn(bin, &listed, CENTRAL_BUDGET, state_dir)?;
    let mut admin = PbClient::connect(server.tcp).map_err(|e| e.to_string())?;
    for input in rest {
        let source = RegisterSource::Path(input.path.to_string_lossy().into_owned());
        let name = input.spec.name.to_string();
        let shards = Some(input.spec.shards);
        let reply = match input.spec.mode {
            Mode::Central => admin.register(
                ADMIN_TOKEN,
                RegisterRequest {
                    name,
                    source,
                    budget: Some(CENTRAL_BUDGET),
                    shards,
                },
            ),
            Mode::Ldp {
                epsilon_local,
                universe,
                pad,
            } => admin.register_ldp(
                ADMIN_TOKEN,
                RegisterLdpRequest {
                    name,
                    source,
                    params: LdpParams {
                        epsilon_local,
                        universe,
                        pad: pad as u64,
                    },
                    shards,
                },
            ),
        };
        reply.map_err(|e| format!("registering `{}`: {e}", input.spec.name))?;
    }
    let warm = loadgen::warm_up(plan, &mut admin, server.http)?;
    let seconds = started.elapsed().as_secs_f64();
    Ok((server, seconds, warm))
}

/// The state dir of the `i`-th server of a run (durable workloads only): fresh per
/// server, inside the run's work dir.
pub fn state_dir(plan: &Plan, work: &Path, i: usize) -> Option<PathBuf> {
    plan.durable.then(|| work.join(format!("state-{i}")))
}

/// The untraced run: `SETUPS` set-ups (the median is `setup_s`), then the timed
/// phase on the last server.
fn timed_run(
    bin: &Path,
    plan: &Plan,
    inputs: &[Input],
    work: &Path,
    window: Duration,
    info: &mut Vec<String>,
) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut checks = Checks::default();
    let mut live = None;
    for i in 0..SETUPS {
        let dir = state_dir(plan, work, i);
        let (server, seconds, warm) = setup(bin, plan, inputs, dir.as_deref())?;
        setups.push(seconds);
        if i + 1 < SETUPS {
            let mut ledger = Ledger::new(plan);
            ledger.add(plan, &warm, &mut checks);
            ledger.verify(plan, &server, &mut checks)?;
            server.shutdown()?;
        } else {
            live = Some((server, warm));
        }
    }
    let (server, warm) = live.expect("at least one set-up");
    let mut ledger = Ledger::new(plan);
    ledger.add(plan, &warm, &mut checks);
    let mut cursors = vec![0; plan.lists.len()];
    let cpu_before = stats::CpuTimes::read();
    let started = Instant::now();
    let outcomes = loadgen::run_phase(plan, server.tcp, server.http, &mut cursors, window, false)?;
    // A closed loop ends at the window or when its query list runs out (cold-theta's
    // list of fresh k values is finite); throughput is over the time actually taken.
    let elapsed = started.elapsed();
    let steal = stats::CpuTimes::read().steal_share_since(&cpu_before);
    ledger.add(plan, &outcomes, &mut checks);
    ledger.verify(plan, &server, &mut checks)?;
    let rss = server.peak_rss_mb()?;
    server.shutdown()?;

    let summary = stats::Summary::of(plan, &outcomes, elapsed);
    info.push(summary.describe(&setups, rss, steal));
    let metrics = vec![
        Metric::new("setup_s", "s", stats::median(&setups)),
        Metric::new("latency_p50_ms", "ms", summary.p50_ms),
        Metric::new("latency_p90_ms", "ms", summary.p90_ms),
        Metric::new("throughput_rps", "1/s", summary.throughput),
        Metric::new("server_rss_mb", "MB", rss),
    ];
    if summary.samples < 100 {
        eprintln!(
            "perfbench: warning: {} samples support no p90 (needs 100)",
            summary.samples
        );
    }
    Ok(checks.into_report(summary.samples, summary.failed, metrics))
}

/// Output checks accumulated over a run; any failure makes the run incorrect.
#[derive(Default)]
pub struct Checks {
    pub failures: Vec<String>,
}

impl Checks {
    pub fn fail(&mut self, message: String) {
        if self.failures.len() < 20 {
            self.failures.push(message);
        }
    }

    pub fn into_report(self, attempted: usize, failed: usize, metrics: Vec<Metric>) -> Report {
        Report {
            info: Vec::new(),
            correct: self.failures.is_empty(),
            failures: self.failures,
            attempted: attempted.max(1),
            failed,
            metrics,
        }
    }
}

/// The ε every dataset must have spent: the sum over acknowledged releases.
pub struct Ledger {
    expected: Vec<f64>,
    releases: Vec<u64>,
}

impl Ledger {
    pub fn new(plan: &Plan) -> Ledger {
        Ledger {
            expected: vec![0.0; plan.datasets.len()],
            releases: vec![0; plan.datasets.len()],
        }
    }

    /// Adds acknowledged releases and checks each response.
    pub fn add(&mut self, plan: &Plan, outcomes: &[Outcome], checks: &mut Checks) {
        for o in outcomes {
            let q = query_of(plan, o);
            if let Some(e) = &o.error {
                checks.fail(format!(
                    "{} query k={}: {e}",
                    plan.datasets[q.dataset].name, q.k
                ));
                continue;
            }
            let charged = match plan.datasets[q.dataset].mode {
                Mode::Central => q.epsilon,
                Mode::Ldp { .. } => 0.0,
            };
            if o.epsilon_spent != charged {
                checks.fail(format!(
                    "{} acknowledged epsilon_spent {} for a query of ε {} (expected {charged})",
                    plan.datasets[q.dataset].name, o.epsilon_spent, q.epsilon
                ));
            }
            self.expected[q.dataset] += charged;
            self.releases[q.dataset] += 1;
        }
    }

    /// Compares each dataset's `spent` in `status` with the acknowledged sum, exactly,
    /// and the server's `debit` span count with the number of central releases.
    pub fn verify(&self, plan: &Plan, server: &Server, checks: &mut Checks) -> Result<(), String> {
        let mut client = PbClient::connect(server.tcp).map_err(|e| e.to_string())?;
        let status = client.status().map_err(|e| format!("status: {e}"))?;
        for (i, spec) in plan.datasets.iter().enumerate() {
            match status.datasets.iter().find(|d| d.name == spec.name) {
                None => checks.fail(format!("status lists no dataset `{}`", spec.name)),
                Some(row) => {
                    if row.spent != self.expected[i] {
                        checks.fail(format!(
                            "`{}` status spent {} but acknowledged releases sum to {}",
                            spec.name, row.spent, self.expected[i]
                        ));
                    }
                    if matches!(spec.mode, Mode::Ldp { .. }) && row.ldp.is_none() {
                        checks.fail(format!("`{}` is not served in LDP mode", spec.name));
                    }
                }
            }
        }
        let debits = attrib::scrape(server.http)?
            .stage("debit")
            .map_or(0, |s| s.count);
        let central: u64 = plan
            .datasets
            .iter()
            .zip(&self.releases)
            .filter(|(spec, _)| spec.mode == Mode::Central)
            .map(|(_, n)| n)
            .sum();
        if debits != central {
            checks.fail(format!(
                "{debits} debit spans recorded for {central} central releases \
                 (every central release debits once, an LDP release never)"
            ));
        }
        Ok(())
    }
}

/// The query an outcome was for.
pub fn query_of(plan: &Plan, o: &Outcome) -> spec::Query {
    if o.list == usize::MAX {
        plan.warmup[o.index]
    } else {
        plan.lists[o.list][o.index]
    }
}

/// The run's first stdout line: environment and input recipe.
fn describe(args: &Args, plan: &Plan, inputs: &[Input], root: &Path, nproc: usize) -> String {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    let commit = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown (not a git checkout)".to_string());
    let datasets: Vec<String> = inputs
        .iter()
        .map(|input| {
            let s = &input.spec;
            let mode = match s.mode {
                Mode::Central => "\"central\"".to_string(),
                Mode::Ldp {
                    epsilon_local,
                    universe,
                    pad,
                } => format!(
                    "{{\"ldp\": {{\"epsilon_local\": {epsilon_local}, \"universe\": {universe}, \"pad\": {pad}}}}}"
                ),
            };
            let relative = input.path.strip_prefix(root).unwrap_or(&input.path);
            format!(
                "{{\"name\": {}, \"profile\": {}, \"scale\": {}, \"gen_seed\": {}, \"rows\": {}, \
                 \"distinct_items\": {}, \"shards\": {}, \"mode\": {mode}, \"input\": {}}}",
                json_str(s.name),
                json_str(s.profile.name()),
                s.scale,
                s.gen_seed,
                input.rows,
                input.items,
                s.shards,
                json_str(&relative.to_string_lossy())
            )
        })
        .collect();
    let table: Vec<String> = plan
        .table
        .iter()
        .map(|(d, ks, eps)| {
            let ks = if ks.len() > 4 {
                format!("\"{}..={}\"", ks[0], ks[ks.len() - 1])
            } else {
                format!("{ks:?}")
            };
            format!(
                "{{\"dataset\": {}, \"k\": {ks}, \"epsilon\": {eps:?}}}",
                json_str(plan.datasets[*d].name)
            )
        })
        .collect();
    let traffic = match plan.traffic {
        Traffic::ClosedTcp { clients } => {
            format!("{{\"loop\": \"closed\", \"transport\": \"tcp-v2 PbClient\", \"clients\": {clients}}}")
        }
        Traffic::OpenHttp { connections, rate } => format!(
            "{{\"loop\": \"open\", \"transport\": \"http/1.1 keep-alive\", \"connections\": {connections}, \"rate_per_s\": {}}}",
            stats::json_num(rate)
        ),
    };
    format!(
        "{{\"perfbench\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"environment\": {{\"nproc\": {nproc}, \"rustc\": {}, \"commit\": {}, \"server\": \"privbasis-cli serve --threads 2\"}}, \
         \"datasets\": [{}], \"queries\": [{}], \"warmup_queries\": {}, \"traffic\": {traffic}, \
         \"state_dir\": {}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        json_str(&rustc),
        json_str(&commit),
        datasets.join(", "),
        table.join(", "),
        plan.warmup.len(),
        plan.durable,
    )
}
