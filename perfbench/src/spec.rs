//! Workload definitions: datasets (datagen recipe), query lists and traffic shape.
//!
//! Everything a run sends is a pure function of the workload seed, so the same seed
//! gives the same inputs. The server only ever sees the generated FIMI files and the
//! requests.

use pb_datagen::DatasetProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Arrival rate of the `durable-http` open loop, requests per second. In a one-off
/// capacity probe, the same mix over two connections in a closed loop completed
/// 600–1,480 releases/s on the 2-core VM the benchmark was defined on, depending on
/// load from other tenants; at half the high figure the open loop fell behind
/// whenever capacity dipped, so the rate sits at half the low figure.
pub const DURABLE_HTTP_RATE: f64 = 300.0;

/// Lifetime budget of every central dataset: finite, so every release really debits
/// a ledger, and far above anything a run can spend, so no query is refused.
pub const CENTRAL_BUDGET: f64 = 1.0e9;

/// Local budget of the LDP datasets' channel.
pub const LDP_EPSILON_LOCAL: f64 = 4.0;

/// Datagen seed of every dataset. Fixed, so the datasets (and their row and item
/// counts, recorded in each run's first output line) are the same in every run;
/// `--seed` varies the query lists and noise seeds. Data-dependent costs such as θ mining and the
/// miner's peak memory then do not move between runs of one commit.
pub const GEN_SEED: u64 = 1;

/// Seeds are masked to 53 bits so they survive the JSON number round trip.
const SEED_MASK: u64 = (1 << 53) - 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WarmMix,
    ColdTheta,
    DurableHttp,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "warm-mix" => Some(Workload::WarmMix),
            "cold-theta" => Some(Workload::ColdTheta),
            "durable-http" => Some(Workload::DurableHttp),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmMix => "warm-mix",
            Workload::ColdTheta => "cold-theta",
            Workload::DurableHttp => "durable-http",
        }
    }
}

/// How a dataset is registered with the server.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    Central,
    /// Rows perturbed client-side with `pb-ldp`, registered via `register_ldp`.
    Ldp {
        epsilon_local: f64,
        universe: u32,
        pad: usize,
    },
}

/// One generated dataset: datagen recipe, shard layout and privacy mode.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    pub name: &'static str,
    pub profile: DatasetProfile,
    pub scale: f64,
    pub gen_seed: u64,
    pub shards: usize,
    pub mode: Mode,
}

/// One release request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    /// Index into [`Plan::datasets`].
    pub dataset: usize,
    pub k: usize,
    pub epsilon: f64,
    pub seed: u64,
}

/// Traffic shape of the timed phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Closed loop over `PbClient` TCP v2 connections, one query list per client.
    ClosedTcp { clients: usize },
    /// Open loop at a fixed arrival rate over keep-alive HTTP/1.1 connections.
    OpenHttp { connections: usize, rate: f64 },
}

/// Everything one run of a workload sends.
#[derive(Debug, Clone)]
pub struct Plan {
    pub workload: Workload,
    pub datasets: Vec<DatasetSpec>,
    /// Issued once after registration, before timing (counted in setup).
    pub warmup: Vec<Query>,
    /// Closed loop: one list per client. Open loop: one shared schedule.
    pub lists: Vec<Vec<Query>>,
    pub traffic: Traffic,
    /// Whether the server runs with a (fresh) `--state-dir`, journaling every debit.
    pub durable: bool,
    /// The (dataset, k, ε) combinations the timed phase draws from, for the record.
    pub table: Vec<(usize, Vec<usize>, Vec<f64>)>,
}

fn query_seed(rng: &mut StdRng) -> u64 {
    rng.next_u64() & SEED_MASK
}

impl Plan {
    /// `max_connections` caps the client count (the load generator opens at most
    /// `nproc` connections).
    pub fn new(workload: Workload, seed: u64, max_connections: usize) -> Plan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let gen_seed = GEN_SEED;
        let conns = 2.min(max_connections).max(1);
        match workload {
            Workload::WarmMix => {
                let datasets = vec![
                    central("retail", DatasetProfile::Retail, 0.1, gen_seed, 1),
                    central("kosarak", DatasetProfile::Kosarak, 0.02, gen_seed, 2),
                    ldp(gen_seed),
                ];
                let combos = [(0, 50), (0, 100), (1, 100), (1, 200), (2, 20), (2, 50)];
                let warmup = combos
                    .iter()
                    .map(|&(dataset, k)| Query {
                        dataset,
                        k,
                        epsilon: 1.0,
                        seed: query_seed(&mut rng),
                    })
                    .collect();
                // Each client rotates over every (dataset, k, ε) combination, starting
                // at a different offset so the two clients overlap different stages.
                let slots = 2 * combos.len();
                let lists = (0..conns)
                    .map(|client| {
                        (0..4096)
                            .map(|i| {
                                let slot = (i + client * 5) % slots;
                                let (dataset, k) = combos[slot % combos.len()];
                                Query {
                                    dataset,
                                    k,
                                    epsilon: if slot < combos.len() { 0.5 } else { 1.0 },
                                    seed: query_seed(&mut rng),
                                }
                            })
                            .collect()
                    })
                    .collect();
                Plan {
                    workload,
                    datasets,
                    warmup,
                    lists,
                    traffic: Traffic::ClosedTcp { clients: conns },
                    durable: true,
                    table: vec![
                        (0, vec![50, 100], vec![0.5, 1.0]),
                        (1, vec![100, 200], vec![0.5, 1.0]),
                        (2, vec![20, 50], vec![0.5, 1.0]),
                    ],
                }
            }
            Workload::ColdTheta => {
                // Mushroom is registered as several copies of the same rows: each copy
                // has its own θ memo, so the same fresh k values can be used once per
                // copy. That lengthens the list with releases of the same costs;
                // mushroom k > 90 would each mine for 250–380 ms, slowing the phase.
                let mut datasets: Vec<DatasetSpec> = COLD_MUSHROOM_NAMES
                    .iter()
                    .map(|&name| central(name, DatasetProfile::Mushroom, 1.0, gen_seed, 1))
                    .collect();
                datasets.push(central("retail", DatasetProfile::Retail, 0.1, gen_seed, 1));
                // Warm-up builds every context with k = 1 (θ anchor k1 = 2), which no
                // timed query uses: every timed k is fresh on its dataset, so every
                // release mines θ. ⌈η·k⌉ is injective in k, so distinct k never share
                // a memoized k1.
                let warmup = (0..datasets.len())
                    .map(|dataset| Query {
                        dataset,
                        k: 1,
                        epsilon: 1.0,
                        seed: query_seed(&mut rng),
                    })
                    .collect();
                let pools: Vec<(usize, Vec<usize>)> = (0..datasets.len())
                    .map(|dataset| {
                        let (lo, hi) = if dataset < COLD_MUSHROOM_NAMES.len() {
                            COLD_MUSHROOM_K
                        } else {
                            COLD_RETAIL_K
                        };
                        (dataset, (lo..=hi).collect())
                    })
                    .collect();
                let list = cold_schedule(&mut rng, &pools);
                Plan {
                    workload,
                    datasets,
                    warmup,
                    lists: vec![list],
                    traffic: Traffic::ClosedTcp { clients: 1 },
                    durable: false,
                    table: pools
                        .into_iter()
                        .map(|(dataset, ks)| (dataset, ks, vec![0.5, 1.0]))
                        .collect(),
                }
            }
            Workload::DurableHttp => {
                let datasets = vec![
                    central("central", DatasetProfile::Mushroom, 0.1, gen_seed, 1),
                    ldp(gen_seed),
                ];
                let ks = [20, 50];
                let mut warmup = Vec::new();
                for dataset in 0..2 {
                    for &k in &ks {
                        warmup.push(Query {
                            dataset,
                            k,
                            epsilon: 1.0,
                            seed: query_seed(&mut rng),
                        });
                    }
                }
                // Requests alternate central / LDP; k and ε rotate within each half.
                let schedule = (0..1 << 16)
                    .map(|i| Query {
                        dataset: i % 2,
                        k: ks[(i / 2) % 2],
                        epsilon: if (i / 4) % 2 == 0 { 0.5 } else { 1.0 },
                        seed: query_seed(&mut rng),
                    })
                    .collect();
                Plan {
                    workload,
                    datasets,
                    warmup,
                    lists: vec![schedule],
                    traffic: Traffic::OpenHttp {
                        connections: conns,
                        rate: DURABLE_HTTP_RATE,
                    },
                    durable: true,
                    table: vec![
                        (0, ks.to_vec(), vec![0.5, 1.0]),
                        (1, ks.to_vec(), vec![0.5, 1.0]),
                    ],
                }
            }
        }
    }
}

/// `cold-theta` k ranges (inclusive). Beyond these the single-backend θ miner costs
/// more than half a second per release (retail@0.1 at k=50: ~0.7 s), which would
/// leave too few samples in a run for a p90.
pub const COLD_MUSHROOM_K: (usize, usize) = (2, 90);
pub const COLD_RETAIL_K: (usize, usize) = (2, 45);

/// The `cold-theta` copies of mushroom@1.0. With three, the list (3 × 89 + 44
/// releases) outlasts a 30 s window, which then holds two or more latency slices.
const COLD_MUSHROOM_NAMES: [&str; 3] = ["mushroom", "mushroom-b", "mushroom-c"];

/// The `cold-theta` query order: datasets interleave in proportion to their pool
/// sizes, and each dataset's k values are drawn stratified (one from each tenth of the
/// range per round), so any prefix of the list has nearly the same cost mix — runs
/// that complete different numbers of releases still see the same distribution.
fn cold_schedule(rng: &mut StdRng, pools: &[(usize, Vec<usize>)]) -> Vec<Query> {
    let total: usize = pools.iter().map(|(_, p)| p.len()).sum();
    let mut ordered: Vec<(usize, Vec<usize>)> = pools
        .iter()
        .map(|(d, pool)| (*d, stratified(rng, pool, 10)))
        .collect();
    let mut taken = vec![0usize; pools.len()];
    let mut list = Vec::with_capacity(total);
    for i in 0..total {
        // Pick the dataset furthest behind its proportional share.
        let (slot, _) = ordered
            .iter()
            .enumerate()
            .filter(|(s, (_, pool))| taken[*s] < pool.len())
            .map(|(s, (_, pool))| {
                let due = (i + 1) as f64 * pool.len() as f64 / total as f64;
                (s, due - taken[s] as f64)
            })
            .fold((usize::MAX, f64::NEG_INFINITY), |best, cur| {
                if cur.1 > best.1 {
                    cur
                } else {
                    best
                }
            });
        let (dataset, pool) = &mut ordered[slot];
        let k = pool[taken[slot]];
        taken[slot] += 1;
        list.push(Query {
            dataset: *dataset,
            k,
            epsilon: if list.len() % 2 == 0 { 0.5 } else { 1.0 },
            seed: query_seed(rng),
        });
    }
    list
}

/// A permutation of `pool` (ascending) that takes one element from each of `strata`
/// equal blocks per round, in a random order within the round.
fn stratified(rng: &mut StdRng, pool: &[usize], strata: usize) -> Vec<usize> {
    let size = pool.len().div_ceil(strata);
    let mut blocks: Vec<Vec<usize>> = pool.chunks(size).map(<[usize]>::to_vec).collect();
    for block in &mut blocks {
        shuffle(rng, block);
    }
    let mut out = Vec::with_capacity(pool.len());
    while out.len() < pool.len() {
        let mut round: Vec<usize> = blocks.iter_mut().filter_map(Vec::pop).collect();
        shuffle(rng, &mut round);
        out.extend(round);
    }
    out
}

fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}

/// `mushroom@0.1` rows perturbed client-side with `pb-ldp` and served in LDP mode:
/// no ledger, no journal write, a `debias` pass per release.
fn ldp(gen_seed: u64) -> DatasetSpec {
    DatasetSpec {
        name: "ldp",
        profile: DatasetProfile::Mushroom,
        scale: 0.1,
        gen_seed,
        shards: 1,
        // Universe and pad are filled in from the generated rows.
        mode: Mode::Ldp {
            epsilon_local: LDP_EPSILON_LOCAL,
            universe: 0,
            pad: 0,
        },
    }
}

fn central(
    name: &'static str,
    profile: DatasetProfile,
    scale: f64,
    gen_seed: u64,
    shards: usize,
) -> DatasetSpec {
    DatasetSpec {
        name,
        profile,
        scale,
        gen_seed,
        shards,
        mode: Mode::Central,
    }
}
