//! Figure F11 — robustness under injected DMA faults.
//!
//! Panel 1 sweeps the fault rate over random task sets and reports the
//! fault/retry volume, the job-level miss ratio, and *goodput* (the
//! fraction of released jobs that complete by their deadline). The
//! injector couples runs through common random numbers — a run at a
//! higher rate faults a superset of the transfers a lower rate faults —
//! so aggregate goodput decays monotonically as the rate rises.
//!
//! Panel 2 holds the fault rate at the sweep's harshest point and
//! compares the three deadline-miss policies: `continue` keeps late
//! jobs running, `abort` reclaims their remaining demand, `skip-next`
//! sheds the release after a miss to relieve overload.

use rtmdm_core::report;
use rtmdm_mcusim::FaultPlan;
use rtmdm_sched::gen::{generate, TasksetParams};
use rtmdm_sched::sim::{simulate, Policy, SimConfig, SimResult};
use rtmdm_sched::{MissPolicy, TaskSet};

use rtmdm_par::par_map_seeded;

use super::eval_platform;

/// Fault rates of the panel-1 sweep, in faults per million transfers.
const RATES: [u64; 6] = [0, 1_000, 10_000, 50_000, 200_000, 500_000];

/// Task sets per sweep cell.
const SETS: u32 = 60;

/// Per-attempt bus-latency jitter bound used throughout F11.
const JITTER: u64 = 50;

fn params() -> TasksetParams {
    // Fetch-heavy sets so transfer faults actually bite: the staging
    // pipeline carries 40% of each task's demand.
    let mut p = TasksetParams::baseline(4, 35 * 10_000);
    p.segments_range = (3, 6);
    p.fetch_compute_ratio_ppm = 400_000;
    p
}

/// One simulated cell: a generated set under `policy` at `rate_ppm`.
fn run_cell(seed: u32, rate_ppm: u64, policy: MissPolicy) -> SimResult {
    let p = eval_platform();
    let ts = generate(&params(), &p, u64::from(seed));
    let ts = TaskSet::from_tasks(
        ts.tasks()
            .iter()
            .map(|t| t.clone().with_miss_policy(policy))
            .collect(),
    );
    let horizon = ts.tasks().iter().map(|t| t.period).max().unwrap() * 4;
    let mut config = SimConfig::new(horizon, Policy::FixedPriority);
    config.fault = FaultPlan {
        seed: u64::from(seed),
        dma_fault_rate_ppm: rate_ppm,
        max_retries: rtmdm_mcusim::DEFAULT_MAX_RETRIES,
        jitter_max_cycles: JITTER,
    };
    simulate(&ts, &p, &config)
}

/// Aggregate counters folded over one sweep cell's task sets.
#[derive(Default)]
struct Tally {
    releases: u64,
    misses: u64,
    shed: u64,
    aborted: u64,
    faults: u64,
    retries: u64,
    refetch_cycles: u64,
}

impl Tally {
    fn add(&mut self, run: &SimResult) {
        self.releases += run.stats.iter().map(|s| s.releases).sum::<u64>();
        self.misses += run.total_misses();
        self.shed += run.metrics.shed_jobs;
        self.aborted += run.metrics.aborted_jobs;
        self.faults += run.metrics.injected_faults;
        self.retries += run.metrics.fetch_retries;
        self.refetch_cycles += run.metrics.refetch_cycles.get();
    }

    /// Fraction of released jobs that completed by their deadline.
    /// Missed jobs are late or dropped; shed releases never ran (and
    /// never reached a deadline check), so both count against goodput.
    fn goodput_pct(&self) -> f64 {
        let on_time = self.releases - self.misses - self.shed;
        100.0 * on_time as f64 / self.releases.max(1) as f64
    }

    fn miss_pct(&self) -> f64 {
        100.0 * self.misses as f64 / self.releases.max(1) as f64
    }
}

impl Extend<SimResult> for Tally {
    fn extend<T: IntoIterator<Item = SimResult>>(&mut self, iter: T) {
        for run in iter {
            self.add(&run);
        }
    }
}

fn fold<I: IntoIterator<Item = SimResult>>(runs: I) -> Tally {
    let mut t = Tally::default();
    t.extend(runs);
    t
}

/// F11 — miss ratio and goodput versus fault rate, plus the
/// deadline-miss-policy comparison at the harshest rate.
pub fn f11_robustness() -> String {
    let cells: Vec<(u64, u32)> = RATES
        .iter()
        .flat_map(|&r| (0..SETS).map(move |s| (r, s)))
        .collect();
    let runs = par_map_seeded(cells, |(rate, seed)| {
        run_cell(seed, rate, MissPolicy::Continue)
    });
    let mut rows = Vec::new();
    let mut it = runs.into_iter();
    for &rate in &RATES {
        let t = fold(it.by_ref().take(SETS as usize));
        rows.push(vec![
            format!("{rate}"),
            t.faults.to_string(),
            t.retries.to_string(),
            t.refetch_cycles.to_string(),
            format!("{:.2}%", t.miss_pct()),
            format!("{:.2}%", t.goodput_pct()),
        ]);
    }
    let main = report::table(
        &[
            "fault rate (ppm)",
            "faults",
            "retries",
            "refetch cycles",
            "job miss ratio",
            "goodput",
        ],
        &rows,
    );

    // Panel 2: what each miss policy salvages at the harshest rate.
    let harsh = *RATES.last().expect("rates");
    let policies = [
        ("continue", MissPolicy::Continue),
        ("abort", MissPolicy::Abort),
        ("skip-next", MissPolicy::SkipNextRelease),
    ];
    let cells2: Vec<(usize, u32)> = (0..policies.len())
        .flat_map(|p| (0..SETS).map(move |s| (p, s)))
        .collect();
    let runs2 = par_map_seeded(cells2, |(p, seed)| run_cell(seed, harsh, policies[p].1));
    let mut rows2 = Vec::new();
    let mut it2 = runs2.into_iter();
    for (name, _) in policies {
        let t = fold(it2.by_ref().take(SETS as usize));
        rows2.push(vec![
            name.to_owned(),
            format!("{:.2}%", t.miss_pct()),
            t.shed.to_string(),
            t.aborted.to_string(),
            format!("{:.2}%", t.goodput_pct()),
        ]);
    }
    let second = report::table(
        &[
            "miss policy",
            "job miss ratio",
            "shed",
            "aborted",
            "goodput",
        ],
        &rows2,
    );
    format!("{main}\nmiss-policy comparison at {harsh} ppm:\n{second}")
}
