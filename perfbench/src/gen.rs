//! Seeded input generators. Every workload's inputs are a pure function
//! of the `--seed` argument; the program under test only ever sees the
//! generated requests, mixes and cells.

use rtmdm_core::{AdmitError, FrameworkOptions, RtMdm, TaskSpec};
use rtmdm_dnn::zoo;
use rtmdm_mcusim::{FaultPlan, PlatformConfig};
use rtmdm_sched::sim::Policy;

/// SplitMix64: a tiny, fully specified generator, so the inputs of a
/// seed never change with a dependency's version.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Log-uniform in `[lo, hi]`, rounded to whole microseconds.
    pub fn log_uniform(&mut self, lo: u64, hi: u64) -> u64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let v = (lo as f64).ln() + u * ((hi as f64).ln() - (lo as f64).ln());
        (v.exp().round() as u64).clamp(lo, hi)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Zoo model names, lightest first.
pub const MODELS: [&str; 6] = [
    "micro-mlp",
    "ds-cnn",
    "lenet5",
    "resnet8",
    "mobilenet-v1-025",
    "autoencoder",
];

/// The three MCU presets (the ideal-SRAM idealisation is only served).
pub const MCUS: [&str; 3] = ["cortex-m4-lowend", "stm32f746-qspi", "stm32h743-ospi"];

/// Every platform preset the service knows.
pub const PLATFORMS: [&str; 4] = [
    "cortex-m4-lowend",
    "stm32f746-qspi",
    "stm32h743-ospi",
    "ideal-sram",
];

/// `buffer_bytes` = 2^64 − 1: admitted unsoundly today (the weight
/// region wraps), so every such line the service admits is a failure.
pub const HOSTILE_BUFFER: u64 = u64::MAX;

/// The scheduling options a request selects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opts {
    /// `{}`: fixed priority, priority-gated.
    Default,
    /// `{"policy":"edf"}`.
    Edf,
    /// `{"work_conserving":true}`.
    WorkConserving,
}

impl Opts {
    pub const ALL: [Opts; 3] = [Opts::Default, Opts::Edf, Opts::WorkConserving];

    fn json(self) -> &'static str {
        match self {
            Opts::Default => "{}",
            Opts::Edf => r#"{"policy":"edf"}"#,
            Opts::WorkConserving => r#"{"work_conserving":true}"#,
        }
    }

    pub fn framework(self) -> FrameworkOptions {
        let mut o = FrameworkOptions::default();
        match self {
            Opts::Default => {}
            Opts::Edf => o.policy = Policy::Edf,
            Opts::WorkConserving => o.work_conserving = true,
        }
        o
    }
}

/// One task of a generated request.
#[derive(Debug, Clone)]
pub struct TaskReq {
    pub name: String,
    pub model: &'static str,
    pub period_us: u64,
    pub buffer_bytes: Option<u64>,
}

/// One generated admission request, kept in structured form so the
/// benchmark can re-derive the expected answer independently of the
/// service's wire parser.
#[derive(Debug, Clone)]
pub struct Request {
    pub platform: &'static str,
    pub opts: Opts,
    pub tasks: Vec<TaskReq>,
}

impl Request {
    /// The JSONL request line under `id`.
    pub fn line(&self, id: &str) -> String {
        let tasks: Vec<String> = self
            .tasks
            .iter()
            .map(|t| {
                let buf = t
                    .buffer_bytes
                    .map(|b| format!(r#","buffer_bytes":{b}"#))
                    .unwrap_or_default();
                format!(
                    r#"{{"name":"{}","model":"{}","period_us":{}{buf}}}"#,
                    t.name, t.model, t.period_us
                )
            })
            .collect();
        format!(
            r#"{{"id":"{id}","platform":"{}","options":{},"tasks":[{}]}}"#,
            self.platform,
            self.opts.json(),
            tasks.join(",")
        )
    }

    pub fn platform(&self) -> PlatformConfig {
        preset(self.platform)
    }

    /// The task specs, each model built from the zoo.
    pub fn specs(&self) -> Vec<TaskSpec> {
        self.tasks
            .iter()
            .map(|t| {
                let model = zoo::by_name(t.model).expect("generated models are zoo models");
                let spec = TaskSpec::new(t.name.clone(), model, t.period_us, t.period_us);
                match t.buffer_bytes {
                    Some(b) => spec.with_buffer_bytes(b),
                    None => spec,
                }
            })
            .collect()
    }

    /// The framework instance the request describes, tasks added.
    pub fn framework(&self, options: FrameworkOptions) -> Result<RtMdm, AdmitError> {
        let mut fw = RtMdm::with_options(self.platform(), options)?;
        for spec in self.specs() {
            fw.add_task(spec)?;
        }
        Ok(fw)
    }

    pub fn is_hostile(&self) -> bool {
        self.tasks
            .iter()
            .any(|t| t.buffer_bytes == Some(HOSTILE_BUFFER))
    }
}

pub fn preset(name: &str) -> PlatformConfig {
    PlatformConfig::presets()
        .into_iter()
        .find(|p| p.name == name)
        .expect("generated platforms are presets")
}

/// The `k`th `n`-model hand of a fixed design: the `n`-subsets of
/// `models` in lexicographic order, cycled, so that every model is
/// asked for equally often and never twice in one set (a multi-DNN set
/// runs different networks). Which networks share a set decides what
/// the heaviest requests cost, so the hands are the same for every
/// seed; the seed shuffles only the order of each hand's tasks.
fn hand(rng: &mut Rng, models: &[&'static str], n: usize, k: usize) -> Vec<&'static str> {
    fn subsets(from: usize, m: usize, n: usize, out: &mut Vec<Vec<usize>>, cur: &mut Vec<usize>) {
        if cur.len() == n {
            out.push(cur.clone());
            return;
        }
        for i in from..m {
            cur.push(i);
            subsets(i + 1, m, n, out, cur);
            cur.pop();
        }
    }
    let mut all = Vec::new();
    subsets(0, models.len(), n, &mut all, &mut Vec::new());
    let mut hand: Vec<&'static str> = all[k % all.len()].iter().map(|&i| models[i]).collect();
    rng.shuffle(&mut hand);
    hand
}

/// Draws request number `slot`. Its shape (platform, options, 1–4
/// tasks) is stratified by `slot` so that every seed gets the same mix
/// of shapes and only periods, buffers and task order vary: the cost
/// distribution then moves little from seed to seed.
fn request(rng: &mut Rng, slot: usize) -> Request {
    let n = 1 + slot % 4;
    let platform = PLATFORMS[(slot / 4) % PLATFORMS.len()];
    let opts = Opts::ALL[(slot / 16) % Opts::ALL.len()];
    let tasks = hand(rng, &MODELS, n, slot / 4)
        .into_iter()
        .enumerate()
        .map(|(j, model)| {
            // Periods spread over two decades around the models'
            // costs: about two sets in five are admitted.
            let period_us = rng.log_uniform(10_000, 1_000_000);
            // A few tasks ask for a specific weight buffer; the small
            // ones force memory rejects on the low-end board.
            let buffer_bytes = match rng.below(16) {
                0 => Some(1024 * (4 + rng.below(60))),
                1 => Some(1024 * (64 + rng.below(192))),
                _ => None,
            };
            TaskReq {
                name: format!("t{j}"),
                model,
                period_us,
                buffer_bytes,
            }
        })
        .collect();
    Request {
        platform,
        opts,
        tasks,
    }
}

/// Every 50th admit-distinct request is a single task with the hostile
/// `buffer_bytes` (2 %).
pub const HOSTILE_EVERY: usize = 50;

/// `n` pairwise distinct requests from RNG stream `stream`; with
/// `hostile`, every [`HOSTILE_EVERY`]th is the hostile single task.
fn distinct_requests(seed: u64, stream: u64, n: usize, hostile: bool) -> Vec<Request> {
    let mut rng = Rng::new(seed, stream);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let slot = out.len();
        let mut req = request(&mut rng, slot);
        if hostile && slot % HOSTILE_EVERY == HOSTILE_EVERY - 1 {
            // One otherwise admissible task, so the unsound admission
            // is what decides the line.
            req.tasks.truncate(1);
            let task = &mut req.tasks[0];
            task.buffer_bytes = Some(HOSTILE_BUFFER);
            task.period_us = task.period_us.max(500_000);
        }
        if seen.insert(req.line("")) {
            out.push(req);
        }
    }
    out
}

/// The admit-distinct stream: each line a different configuration, so
/// the answer cache never hits.
pub fn distinct_stream(seed: u64, n: usize) -> Vec<Request> {
    distinct_requests(seed, 1, n, true)
}

/// The admit-fleet pool: `n` distinct configurations.
pub fn fleet_pool(seed: u64, n: usize) -> Vec<Request> {
    distinct_requests(seed, 2, n, false)
}

/// One line of the fleet stream.
#[derive(Debug, Clone)]
pub enum FleetLine {
    /// Pool member `config`, asked under a device-unique id.
    Ask {
        config: usize,
        id: String,
        line: String,
    },
    /// A malformed but non-fatal line (unknown field, unknown model or
    /// truncated JSON) made from pool member `config`'s line, that must
    /// come back `ok:false`.
    Malformed { config: usize, line: String },
}

impl FleetLine {
    pub fn text(&self) -> &str {
        match self {
            FleetLine::Ask { line, .. } | FleetLine::Malformed { line, .. } => line,
        }
    }

    /// The pool member the line was made from.
    pub fn config(&self) -> usize {
        match self {
            FleetLine::Ask { config, .. } | FleetLine::Malformed { config, .. } => *config,
        }
    }
}

/// Roughly one fleet line in a hundred is malformed.
const MALFORMED_EVERY: u64 = 100;

/// The admit-fleet stream: pool members drawn uniformly, each under a
/// device-unique id. Lines are drawn on demand, so the stream is as
/// long as the timed phase needs.
#[derive(Debug)]
pub struct FleetStream {
    rng: Rng,
    issued: u64,
    pool: u64,
}

impl FleetStream {
    pub fn new(seed: u64, pool: usize) -> FleetStream {
        FleetStream {
            rng: Rng::new(seed, 3),
            issued: 0,
            pool: pool as u64,
        }
    }

    pub fn next(&mut self, pool: &[Request]) -> FleetLine {
        let id = format!("dev-{:07}", self.issued);
        self.issued += 1;
        let config = self.rng.below(self.pool) as usize;
        let line = pool[config].line(&id);
        if self.rng.below(MALFORMED_EVERY) != 0 {
            return FleetLine::Ask { config, id, line };
        }
        let line = match self.rng.below(3) {
            0 => line.replacen(r#""tasks""#, r#""firmware":"1.2","tasks""#, 1),
            1 => line.replacen(r#""model":""#, r#""model":"x-"#, 1),
            _ => line[..line.len() / 2].to_owned(),
        };
        FleetLine::Malformed { config, line }
    }
}

/// One simulated multi-DNN + control-loop mix.
#[derive(Debug, Clone)]
pub struct Mix {
    pub request: Request,
    pub policy: SimPolicy,
    /// Lower end of the per-job execution-time scale (ppm of WCET).
    pub exec_min_ppm: u64,
    pub exec_seed: u64,
    pub fault: FaultPlan,
    pub horizon_us: u64,
}

/// The three dispatch disciplines the simulator is driven under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimPolicy {
    Gated,
    WorkConserving,
    Edf,
}

impl SimPolicy {
    pub const ALL: [SimPolicy; 3] = [SimPolicy::Gated, SimPolicy::WorkConserving, SimPolicy::Edf];

    pub fn name(self) -> &'static str {
        match self {
            SimPolicy::Gated => "fp-gated",
            SimPolicy::WorkConserving => "fp-wc",
            SimPolicy::Edf => "edf",
        }
    }

    fn opts(self) -> Opts {
        match self {
            SimPolicy::Gated => Opts::Default,
            SimPolicy::WorkConserving => Opts::WorkConserving,
            SimPolicy::Edf => Opts::Edf,
        }
    }
}

/// Low DMA fault rate of the simulated runs (ppm of transfers).
pub const SIM_FAULT_PPM: u64 = 2_000;

/// DNN models a mix draws from (the control loops are `micro-mlp`).
const MIX_DNNS: [&str; 5] = [
    "ds-cnn",
    "lenet5",
    "resnet8",
    "mobilenet-v1-025",
    "autoencoder",
];

/// `n` seeded mixes, stratified over MCU × policy × control-loop count
/// (one or two loops at a 2–10 ms period) plus two different DNN tasks
/// from the fixed pair design of [`hand`]; only periods, task order,
/// execution-time ranges and fault streams vary with the seed.
pub fn sim_mixes(seed: u64, n: usize, horizon_us: u64) -> Vec<Mix> {
    let mut rng = Rng::new(seed, 4);
    (0..n)
        .map(|slot| {
            let platform = MCUS[slot % MCUS.len()];
            let policy = SimPolicy::ALL[(slot / MCUS.len()) % SimPolicy::ALL.len()];
            let loops = 1 + (slot / (MCUS.len() * SimPolicy::ALL.len())) % 2;
            let mut tasks = Vec::new();
            for c in 0..loops {
                tasks.push(TaskReq {
                    name: format!("ctl{c}"),
                    model: "micro-mlp",
                    period_us: rng.log_uniform(2_000, 10_000),
                    buffer_bytes: None,
                });
            }
            for (d, model) in hand(&mut rng, &MIX_DNNS, 2, slot).into_iter().enumerate() {
                tasks.push(TaskReq {
                    name: format!("dnn{d}"),
                    model,
                    period_us: rng.log_uniform(30_000, 600_000),
                    buffer_bytes: None,
                });
            }
            Mix {
                request: Request {
                    platform,
                    opts: policy.opts(),
                    tasks,
                },
                policy,
                exec_min_ppm: 500_000 + rng.below(500_001),
                exec_seed: rng.next_u64(),
                fault: FaultPlan {
                    seed: rng.next_u64(),
                    dma_fault_rate_ppm: SIM_FAULT_PPM,
                    ..FaultPlan::NONE
                },
                horizon_us,
            }
        })
        .collect()
}
