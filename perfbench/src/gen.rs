//! Seeded request streams, one per workload.
//!
//! The generator is the only source of what the server receives: every request
//! line is a pure function of the workload and the seed, so two runs with the
//! same seed send the same stream (which connection a line travels on may vary
//! with timing; the stream order does not).

use std::collections::HashSet;

/// The workloads of the benchmark, each a closed-loop traffic mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Two connections repeating a fixed pool of 16 small mixed queries that
    /// set-up has already primed: every cell hits the session cache.
    WarmRepeat,
    /// Two connections sending fresh large scenarios: every cell misses.
    ColdSweep,
    /// One connection sending fresh correlated-durability optimizer searches.
    OptimizeSearch,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::WarmRepeat,
        Workload::ColdSweep,
        Workload::OptimizeSearch,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WarmRepeat => "warm-repeat",
            Workload::ColdSweep => "cold-sweep",
            Workload::OptimizeSearch => "optimize-search",
        }
    }

    /// Parses a command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop connections (each waits for `done` before sending again).
    pub fn clients(self) -> usize {
        match self {
            Workload::WarmRepeat | Workload::ColdSweep => 2,
            Workload::OptimizeSearch => 1,
        }
    }
}

/// What a generated request is, for the mix test and the per-kind accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// One of the warm pool's queries (its pool index).
    Pool(usize),
    /// A cold cluster-shock Raft cell plus an IS persistence-quorum cell.
    Shock,
    /// [`Kind::Shock`] re-run under a 16-draw posterior.
    ShockPosterior,
    /// A 5-node Raft query validated by simulation under two environments.
    Validate,
    /// A correlated-durability optimizer search.
    Optimize,
}

/// One generated request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Position in the stream (also the request id, `r<seq>`).
    pub seq: u64,
    /// What the request is.
    pub kind: Kind,
    /// The op payload: the `query` object, or `{"space":…,"config":…}`.
    pub body: String,
    /// The full request line (no trailing newline).
    pub line: String,
}

impl Request {
    /// Whether the line is an `optimize` request (else a `query`).
    pub fn is_optimize(&self) -> bool {
        self.kind == Kind::Optimize
    }

    /// The request id.
    pub fn id(&self) -> String {
        format!("r{}", self.seq)
    }
}

/// SplitMix64: a tiny, fully specified generator, so streams never depend on
/// another crate's sampling algorithm.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[lo, hi)`, rounded to six decimals so the value prints
    /// exactly as drawn.
    fn decimal(&mut self, lo: f64, hi: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        ((lo + (hi - lo) * u) * 1e6).round() / 1e6
    }
}

/// Warm pool size.
pub const POOL_SIZE: usize = 16;
/// Seed of the warm pool itself: the pool is fixed; the run seed only picks
/// which pool entry each request repeats.
const POOL_SEED: u64 = 0x5EED_0016;
/// Sample budget of the cold cluster-shock and IS cells.
const COLD_SAMPLES: usize = 100_000;
/// Posterior draws of a [`Kind::ShockPosterior`] request.
const POSTERIOR_DRAWS: usize = 16;
/// Raft cluster sizes of the cold cluster-shock cell.
pub const COLD_NODES: [usize; 3] = [15, 25, 49];

/// The persistence-quorum cell shared by the warm and cold shapes.
fn pq_cell(n: usize, p: f64) -> String {
    format!(
        "{{\"label\":\"pq\",\"model\":{{\"persistence_quorum\":{{\"quorum\":[0,1,2,3]}}}},\
         \"deployment\":{{\"uniform_crash\":{{\"n\":{n},\"p\":{p}}}}}}}"
    )
}

/// The fixed warm pool: the `SERVER_BENCH_REQUEST` shape (an exact counting
/// cell, a packed-MC cluster-shock cell at 500 samples and an IS
/// persistence-quorum cell) over varied sizes, fault and shock probabilities.
pub fn warm_pool() -> Vec<String> {
    let mut rng = Rng::new(POOL_SEED);
    (0..POOL_SIZE)
        .map(|i| {
            let n = [9, 15, 25, 49][i % 4];
            let p = rng.decimal(0.01, 0.06);
            let shock = rng.decimal(0.005, 0.03);
            let pq_n = 24 + rng.below(9) as usize;
            let pq_p = rng.decimal(0.005, 0.02);
            format!(
                "{{\"protocols\":[\"raft\"],\"nodes\":[{n}],\"fault_probs\":[{p}],\
                 \"correlations\":[\"independent\",{{\"cluster_shock\":{{\"probability\":{shock}}}}}],\
                 \"samples\":500,\"seed\":43,\"cells\":[{}]}}",
                pq_cell(pq_n, pq_p)
            )
        })
        .collect()
}

/// The per-request seed every generated query and search carries.
const REQUEST_SEED: u64 = 2026;

/// The request stream of one workload and seed. An iterator of unbounded
/// length; cold and optimize scenarios never repeat within a stream.
pub struct Generator {
    workload: Workload,
    rng: Rng,
    seq: u64,
    pool: Vec<String>,
    seen: HashSet<String>,
    /// The rest of the current block of kinds (taken from the back).
    block: Vec<Kind>,
}

impl Generator {
    /// The stream of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Generator {
        Generator {
            workload,
            // Decorrelate the workloads' streams for equal seeds.
            rng: Rng::new(seed ^ (workload as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F)),
            seq: 0,
            pool: warm_pool(),
            seen: HashSet::new(),
            block: Vec::new(),
        }
    }

    fn request(&mut self, kind: Kind, body: String) -> Request {
        let seq = self.seq;
        self.seq += 1;
        let line = match kind {
            Kind::Optimize => format!("{{\"id\":\"r{seq}\",\"op\":\"optimize\",{}", &body[1..]),
            _ => format!("{{\"id\":\"r{seq}\",\"op\":\"query\",\"query\":{body}}}"),
        };
        Request {
            seq,
            kind,
            body,
            line,
        }
    }

    /// Draws until every scenario key of `draw`'s result (one per analysed
    /// model: its size and fault parameters, without seeds) is new to the
    /// stream, so no request can hit a cache entry an earlier one made.
    fn fresh(&mut self, draw: impl Fn(&mut Rng) -> (String, Vec<String>)) -> String {
        loop {
            let (body, scenarios) = draw(&mut self.rng);
            if scenarios.iter().all(|s| !self.seen.contains(s)) {
                self.seen.extend(scenarios);
                return body;
            }
        }
    }

    /// The next request kind. Kinds come in seeded shuffles of a fixed block,
    /// so every seed sends the stated mix exactly, block by block: a
    /// permutation of the warm pool, or 32 cold requests of which 4 validate
    /// and 7 of the other 28 carry a posterior.
    fn next_kind(&mut self) -> Kind {
        if self.block.is_empty() {
            self.block = match self.workload {
                Workload::WarmRepeat => (0..POOL_SIZE).map(Kind::Pool).collect(),
                Workload::ColdSweep => [
                    (Kind::Validate, 4),
                    (Kind::ShockPosterior, 7),
                    (Kind::Shock, 21),
                ]
                .into_iter()
                .flat_map(|(kind, n)| std::iter::repeat_n(kind, n))
                .collect(),
                Workload::OptimizeSearch => vec![Kind::Optimize],
            };
            for i in (1..self.block.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.block.swap(i, j);
            }
        }
        self.block.pop().expect("blocks are non-empty")
    }

    fn cold(&mut self, kind: Kind) -> Request {
        if kind == Kind::Validate {
            let body = self.fresh(|rng| {
                let p = rng.decimal(0.01, 0.05);
                (
                    format!(
                        "{{\"protocols\":[\"raft\"],\"nodes\":[5],\"fault_probs\":[{p}],\
                         \"validate\":true,\"environments\":[\"clean\",\"gray-primary\"],\
                         \"seed\":{REQUEST_SEED}}}"
                    ),
                    vec![format!("raft n=5 p={p} independent")],
                )
            });
            return self.request(Kind::Validate, body);
        }
        let posterior = kind == Kind::ShockPosterior;
        let body = self.fresh(|rng| {
            let n = COLD_NODES[rng.below(3) as usize];
            let p = rng.decimal(0.01, 0.05);
            let shock = rng.decimal(0.005, 0.03);
            let pq_n = 24 + rng.below(9) as usize;
            let pq_p = rng.decimal(0.005, 0.02);
            let failures = (2 + rng.below(11)) as f64;
            let alpha = failures + 0.5;
            let beta = ((alpha * (1.0 - p) / p) * 1e3).round() / 1e3;
            let (samples, extra) = if posterior {
                (
                    COLD_SAMPLES / POSTERIOR_DRAWS,
                    format!(
                        ",\"posterior\":{{\"draws\":{POSTERIOR_DRAWS},\"alpha\":{alpha},\"beta\":{beta}}}"
                    ),
                )
            } else {
                (COLD_SAMPLES, String::new())
            };
            (
                format!(
                    "{{\"protocols\":[\"raft\"],\"nodes\":[{n}],\"fault_probs\":[{p}],\
                     \"correlations\":[{{\"cluster_shock\":{{\"probability\":{shock}}}}}],\
                     \"samples\":{samples},\"seed\":{REQUEST_SEED}{extra},\"cells\":[{}]}}",
                    pq_cell(pq_n, pq_p)
                ),
                vec![
                    format!("raft n={n} p={p} cluster_shock={shock}"),
                    format!("pq n={pq_n} p={pq_p} quorum=4"),
                ],
            )
        });
        self.request(kind, body)
    }

    fn optimize(&mut self) -> Request {
        let body = self.fresh(|rng| {
            let p = rng.decimal(0.05, 0.15);
            (optimize_body(p), vec![format!("spot p={p} n=100 racks=10")])
        });
        self.request(Kind::Optimize, body)
    }
}

/// The correlated-durability search: 100 spot nodes across 10 shocked racks,
/// same-rack vs cross-rack placement of a 10-node persistence quorum, 8 nines.
pub fn optimize_body(spot_fault_probability: f64) -> String {
    format!(
        "{{\"space\":{{\"instances\":[{{\"name\":\"spot\",\"fault_probability\":{spot_fault_probability},\
         \"hourly_cost\":0.1}}],\"nodes\":[100],\"domains\":{{\"racks\":10,\"shock_probability\":0.01}},\
         \"placements\":[\"same-rack\",\"cross-rack\"],\"target\":{{\"quorum_size\":10}}}},\
         \"config\":{{\"target_nines\":8,\"screen_samples\":20000,\"refine_samples\":80000,\
         \"seed\":{REQUEST_SEED}}}}}"
    )
}

/// The set-up requests that bring a fresh server to ready for `workload`:
/// the warm pool itself for `warm-repeat`; otherwise one request per request
/// shape, which warms the thread pool, allocator and code paths without
/// priming any scenario the stream will send (their parameters lie outside
/// every range the generator draws from).
pub fn warmup_lines(workload: Workload) -> Vec<String> {
    match workload {
        Workload::WarmRepeat => warm_pool()
            .iter()
            .enumerate()
            .map(|(i, body)| format!("{{\"id\":\"prime{i}\",\"op\":\"query\",\"query\":{body}}}"))
            .collect(),
        Workload::ColdSweep => vec![
            format!(
                "{{\"id\":\"warmup0\",\"op\":\"query\",\"query\":{{\"protocols\":[\"raft\"],\"nodes\":[21],\
                 \"fault_probs\":[0.2],\"correlations\":[{{\"cluster_shock\":{{\"probability\":0.1}}}}],\
                 \"samples\":{COLD_SAMPLES},\"seed\":{REQUEST_SEED},\"cells\":[{}]}}}}",
                pq_cell(40, 0.003)
            ),
            format!(
                "{{\"id\":\"warmup1\",\"op\":\"query\",\"query\":{{\"protocols\":[\"raft\"],\"nodes\":[21],\
                 \"fault_probs\":[0.2],\"correlations\":[{{\"cluster_shock\":{{\"probability\":0.1}}}}],\
                 \"samples\":{},\"seed\":{REQUEST_SEED},\
                 \"posterior\":{{\"draws\":{POSTERIOR_DRAWS},\"alpha\":4.5,\"beta\":18}},\"cells\":[{}]}}}}",
                COLD_SAMPLES / POSTERIOR_DRAWS,
                pq_cell(40, 0.004)
            ),
            format!(
                "{{\"id\":\"warmup2\",\"op\":\"query\",\"query\":{{\"protocols\":[\"raft\"],\"nodes\":[5],\
                 \"fault_probs\":[0.2],\"validate\":true,\"environments\":[\"clean\",\"gray-primary\"],\
                 \"seed\":{REQUEST_SEED}}}}}"
            ),
        ],
        Workload::OptimizeSearch => vec![format!(
            "{{\"id\":\"warmup\",\"op\":\"optimize\",{}",
            &optimize_body(0.2)[1..]
        )],
    }
}

impl Iterator for Generator {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        Some(match self.next_kind() {
            Kind::Pool(i) => {
                let body = self.pool[i].clone();
                self.request(Kind::Pool(i), body)
            }
            Kind::Optimize => self.optimize(),
            kind => self.cold(kind),
        })
    }
}
